package detector

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/expr"
)

// TimeSource supplies the detector's local notion of time, used to stamp
// temporal occurrences generated by the P, P* and PLUS operators.  The
// site runtime implements it over internal/clock; tests use fakes.
type TimeSource interface {
	// Now returns the current reference time in microticks.
	Now() clock.Microticks
	// StampAt returns the detector site's timestamp for the given
	// reference instant.
	StampAt(ref clock.Microticks) core.Stamp
}

// Handler receives composite occurrences of a definition.
type Handler func(*event.Occurrence)

// Definition is one named composite event compiled into the graph.
type Definition struct {
	Name    string
	Expr    expr.Node
	Context Context
	root    opNode
	// id is the dense registry TypeID of Name, stamped onto every
	// occurrence this definition emits so downstream dispatch never
	// hashes the name string.
	id event.TypeID
}

// Detector is the composite event detection engine for one site.  It
// compiles named event expressions into an event graph, routes published
// primitive occurrences through the graph, and emits composite
// occurrences to handlers.  Detection is synchronous: Publish returns
// after all transitively triggered composites have been emitted.
//
// Occurrences must be published in an order that linearly extends the
// composite happen-before order (see the package comment); the
// centralized engine achieves this by publishing in timestamp order and
// internal/ddetect restores it under network adversity.
//
// Detector is not safe for concurrent use by multiple goroutines.
// Publish/PublishBatch/AdvanceTo touch only the detector's own graph
// state plus read-only shared inputs (the Registry and the TimeSource,
// each of which carries its own synchronisation), so distinct detectors
// may be driven from distinct goroutines.
type Detector struct {
	site core.SiteID
	reg  *event.Registry
	ts   TimeSource

	// routes and subs are dense slices indexed by event.TypeID (slot 0,
	// the unresolved sentinel, is always empty): the publish path walks
	// integer-indexed port lists with zero map/hash work.  pendingSubs
	// holds handlers registered before their type name is declared
	// (Subscribe before Define); Define flushes it on declaration.
	routes      [][]portRef
	subs        [][]Handler
	pendingSubs map[string][]Handler
	defs        map[string]*Definition
	// defList caches the sorted Definitions() listing; nil means stale
	// (invalidated by Define).
	defList []*Definition

	timers   timerQueue
	timerSeq uint64
	firing   bool
	nodes    []opNode

	// interner hash-conses every compiled expression subtree to a dense
	// expr.NodeID, so the CSE cache below keys on {context, integer}
	// instead of re-serializing ctx.String()+expr.String() per compile.
	// nodeNames caches the concrete-syntax name emitted by each interned
	// subtree's node (computed once per distinct subtree, not per use).
	interner  *expr.Interner
	nodeNames []string

	// shared caches compiled inner sub-expressions per (context,
	// interned subtree) so definitions reuse common subgraphs; see
	// compileShared.
	shared  map[sharedKey]*sharedNode
	sharing bool

	// finishq buffers root completions during one dispatch cascade so they
	// can be delivered in definition order — the publish-order contract
	// sharing on/off must agree on (see drainFinished).  finishScratch is
	// the ping-pong buffer that keeps the drain loop allocation-free.
	finishq       []finishedDet
	finishScratch []finishedDet

	// pending is the canonical delivery schedule: a min-heap of inner-node
	// emissions awaiting delivery, ordered by compile-time edge position.
	// Position order is identical with sharing on and off (edges are
	// allotted at the same chronological points of compilation either
	// way), so cascade interleaving — and hence every node's input order —
	// does not depend on how many definitions share a subgraph.  edgePos
	// allots positions; deliverySeq breaks ties FIFO for multiple
	// emissions on the same edge.
	pending     []delivery
	edgePos     uint32
	deliverySeq uint64

	// bufferLimit caps per-node buffers (0 = unlimited); dropped counts
	// evictions.  See SetBufferLimit.
	bufferLimit int
	dropped     uint64

	// orderCheck validates the caller's linear-extension obligation; see
	// SetOrderChecking.
	orderCheck      bool
	frontier        core.SetStamp
	orderViolations uint64

	// pool, when attached via UsePool, supplies recycled storage for the
	// composite occurrences operator nodes emit; nil keeps the plain
	// heap-allocating constructors.
	pool *event.Pool
}

type portRef struct {
	node opNode
	idx  int
	mask expr.Mask
	// pos is the edge's canonical delivery position (see delivery).
	pos uint32
}

// port is one fan-out edge of a shared sub-expression: deliver to input
// idx of node at canonical position pos.  Unlike the closure chains it
// replaced, a port list is a flat slice the fan-out walks without
// indirect-call-per-edge setup cost at compile time (10k definitions
// previously built 10k closures per shared subtree).
type port struct {
	node opNode
	idx  int
	pos  uint32
}

// sharedKey identifies one entry of the CSE cache: a parameter context
// plus an interned subtree ID.  Integer comparison replaces the old
// ctx.String()+"|"+expr.String() key churn.
type sharedKey struct {
	ctx Context
	id  expr.NodeID
}

// New creates a detector for the given site.  The registry is consulted to
// validate expressions; ts may be nil if no temporal operator is used.
func New(site core.SiteID, reg *event.Registry, ts TimeSource) *Detector {
	return &Detector{
		site:     site,
		reg:      reg,
		ts:       ts,
		defs:     make(map[string]*Definition),
		interner: expr.NewInterner(),
		shared:   make(map[sharedKey]*sharedNode),
		sharing:  true,
	}
}

// SetSharing enables or disables common-subexpression sharing for
// definitions compiled afterwards.  Sharing is on by default: an operator
// node's behaviour is a deterministic function of its input sequence, so
// two definitions embedding the same sub-expression under the same
// parameter context would hold byte-identical state — one node with a
// fanned-out output is observably equivalent and does the work once.
// Disable it to measure the difference (BenchmarkSubexpressionSharing) or
// to isolate definitions for debugging.
func (d *Detector) SetSharing(on bool) { d.sharing = on }

// sharedNode is a cached compiled sub-expression whose emissions fan out
// to every parent port that embeds it.
type sharedNode struct {
	det  *Detector
	node opNode
	outs []port
}

// fanOut schedules one emission for every parent port at its canonical
// position: the subtree evaluates once, but each embedding definition
// receives the result exactly where its own private copy would have
// produced it.
func (sh *sharedNode) fanOut(o *event.Occurrence) {
	for _, p := range sh.outs {
		sh.det.enqueue(p.pos, p.node, p.idx, o)
	}
}

// delivery is one scheduled inner-node emission: occurrence o is due at
// input idx of node, at canonical position pos.
type delivery struct {
	pos  uint32
	idx  int32
	seq  uint64
	node opNode
	o    *event.Occurrence
}

// enqueue schedules a delivery, retaining the occurrence until it is
// handed over.  The pending heap is a plain slice sifted in place — no
// interface boxing, no steady-state allocation.
func (d *Detector) enqueue(pos uint32, n opNode, idx int, o *event.Occurrence) {
	o.Retain()
	d.deliverySeq++
	d.pending = append(d.pending, delivery{pos: pos, idx: int32(idx), seq: d.deliverySeq, node: n, o: o})
	h := d.pending
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !deliveryLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func deliveryLess(a, b delivery) bool {
	if a.pos != b.pos {
		return a.pos < b.pos
	}
	return a.seq < b.seq
}

// popDelivery removes and returns the earliest pending delivery.
func (d *Detector) popDelivery() delivery {
	h := d.pending
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = delivery{} // drop the occurrence reference from the backing array
	d.pending = h[:last]
	h = d.pending
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && deliveryLess(h[r], h[c]) {
			c = r
		}
		if !deliveryLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// drainPending delivers scheduled emissions in position order until none
// remain (deliveries can schedule further deliveries).
func (d *Detector) drainPending() {
	for len(d.pending) > 0 {
		dl := d.popDelivery()
		dl.node.onChild(int(dl.idx), dl.o)
		dl.o.Release()
	}
}

// nextPos allots the next canonical edge position.
func (d *Detector) nextPos() uint32 {
	d.edgePos++
	return d.edgePos
}

// UsePool attaches an occurrence pool: composite occurrences emitted by
// operator nodes are built from recycled storage, and every node buffer
// participates in the reference-count ledger of event.Pool (Retain on
// append, Release on removal).  The ledger calls are unconditional and
// free when no pool is attached — Retain/Release on unpooled occurrences
// are no-ops — so detection logic is identical either way.
func (d *Detector) UsePool(p *event.Pool) { d.pool = p }

// emit builds the composite occurrence an operator node produces — from
// the pool when one is attached — hands it to out, and then drops the
// creator's reference: if the emission chain retained it (a parent node's
// buffer, a definition recorder, a subscriber-held tree) it lives on;
// otherwise it recycles immediately.  The unpooled branch copies cs
// before handing it to NewComposite so the variadic backing array at the
// call sites never escapes and the pooled steady state emits without
// allocating.
func (d *Detector) emit(out emitFunc, name string, cs ...*event.Occurrence) {
	var o *event.Occurrence
	if d.pool != nil {
		o = d.pool.GetComposite(name, d.site, cs)
	} else {
		kept := make([]*event.Occurrence, len(cs))
		copy(kept, cs)
		o = event.NewComposite(name, d.site, kept...)
	}
	out(o)
	o.Release()
}

// emitScratch is emit for a constituent list built in a node's scratch:
// it emits, then empties the list — dropping its pointers, so the scratch
// keeps no consumed occurrence reachable — and returns it for reuse.
func (d *Detector) emitScratch(out emitFunc, name string, cs []*event.Occurrence) []*event.Occurrence {
	d.emit(out, name, cs...)
	clear(cs)
	return cs[:0]
}

// Site returns the detector's site.
func (d *Detector) Site() core.SiteID { return d.site }

// Registry returns the event type registry.
func (d *Detector) Registry() *event.Registry { return d.reg }

// ErrDuplicateDefinition reports a second Define with the same name.
var ErrDuplicateDefinition = errors.New("detector: duplicate definition")

// Define compiles the expression under the given parameter context and
// registers it as a composite event type usable in later definitions.
// Handlers subscribed to name receive every detected occurrence.
func (d *Detector) Define(name string, root expr.Node, ctx Context) (*Definition, error) {
	if name == "" {
		return nil, errors.New("detector: empty definition name")
	}
	if _, dup := d.defs[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateDefinition, name)
	}
	if err := expr.Validate(root, d.reg); err != nil {
		return nil, err
	}
	def := &Definition{Name: name, Expr: root, Context: ctx}
	out := func(o *event.Occurrence) { d.finish(def, o) }
	node, err := d.compile(d.interner.Intern(root), name, ctx, out)
	if err != nil {
		return nil, err
	}
	def.root = node
	d.defs[name] = def
	d.defList = nil // invalidate the sorted listing cache
	if !d.reg.Has(name) {
		if _, err := d.reg.Declare(name, event.Composite); err != nil {
			return nil, err
		}
	}
	def.id = d.reg.TypeID(name)
	d.flushPendingSubs(name)
	return def, nil
}

// flushPendingSubs moves handlers subscribed before name was declared
// into the dense table now that it has a TypeID.
func (d *Detector) flushPendingSubs(name string) {
	hs, ok := d.pendingSubs[name]
	if !ok {
		return
	}
	id := d.reg.TypeID(name)
	if id == 0 {
		return
	}
	delete(d.pendingSubs, name)
	d.subs = growHandlers(d.subs, id)
	d.subs[id] = append(d.subs[id], hs...)
}

// DefineString parses and defines in one step.
func (d *Detector) DefineString(name, expression string, ctx Context) (*Definition, error) {
	n, err := expr.Parse(expression)
	if err != nil {
		return nil, err
	}
	return d.Define(name, n, ctx)
}

// MustDefine is DefineString that panics on error.
func (d *Detector) MustDefine(name, expression string, ctx Context) *Definition {
	def, err := d.DefineString(name, expression, ctx)
	if err != nil {
		panic(err)
	}
	return def
}

// Subscribe registers a handler for occurrences of the named definition
// (or of a raw primitive type).  Subscribing to a name that is not yet
// declared parks the handler until a Define declares it.
func (d *Detector) Subscribe(name string, h Handler) {
	id := d.reg.TypeID(name)
	if id == 0 {
		if d.pendingSubs == nil {
			d.pendingSubs = make(map[string][]Handler)
		}
		d.pendingSubs[name] = append(d.pendingSubs[name], h)
		return
	}
	d.subs = growHandlers(d.subs, id)
	d.subs[id] = append(d.subs[id], h)
}

// Definitions returns the registered definitions in name order, so
// callers (e.g. ddetect's definition hosting) iterate deterministically.
// The listing is cached and invalidated by Define, so the metrics paths
// that consult it every export tick pay the sort once per definition set.
func (d *Detector) Definitions() []*Definition {
	if d.defList != nil {
		return d.defList
	}
	names := make([]string, 0, len(d.defs))
	for name := range d.defs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Definition, 0, len(names))
	for _, name := range names {
		out = append(out, d.defs[name])
	}
	d.defList = out
	return out
}

// finishedDet is one completed root emission awaiting ordered delivery.
type finishedDet struct {
	def *Definition
	o   *event.Occurrence
}

// finish completes a root emission: renames to the defined type and
// queues it for delivery.  Delivery (subscribers plus re-dispatch so
// other definitions can consume the composite by name) happens in
// drainFinished, in definition order: a shared subgraph completes all
// its embedding definitions at one point of the dispatch walk, so
// immediate depth-first delivery would order detections differently with
// sharing on versus off.
func (d *Detector) finish(def *Definition, o *event.Occurrence) {
	o.Type = def.Name
	o.TypeID = def.id
	// The queue holds a reference: the emitting node drops its own right
	// after finish returns, and delivery happens later in drainFinished.
	o.Retain()
	d.finishq = append(d.finishq, finishedDet{def, o})
}

// drainFinished delivers queued root completions in definition order
// until no new ones appear.  Each round is one cascade generation: the
// detections triggered by the published event, then the detections those
// triggered, and so on.  Within a round a stable insertion sort orders
// by definition ID — the queue is a merge of a few already-ascending
// runs (each shared subgraph and each private subtree completes its
// definitions in Define order), so the sort is near-linear and
// allocation-free.
func (d *Detector) drainFinished() {
	for len(d.finishq) > 0 {
		batch := d.finishq
		d.finishq = d.finishScratch[:0]
		for i := 1; i < len(batch); i++ {
			for j := i; j > 0 && batch[j].def.id < batch[j-1].def.id; j-- {
				batch[j], batch[j-1] = batch[j-1], batch[j]
			}
		}
		for _, f := range batch {
			id := f.def.id
			if int(id) < len(d.subs) {
				for _, h := range d.subs[id] {
					h(f.o)
				}
			}
			d.dispatchID(id, f.o)
			f.o.Release() // drop the queue's reference from finish
		}
		d.finishScratch = batch[:0]
	}
}

// nodeName returns the concrete-syntax name emitted by the interned
// subtree id, rendering it at most once per distinct subtree.  Equal
// subtrees print identically, so the cached name matches what every
// structural duplicate would have produced.
func (d *Detector) nodeName(id expr.NodeID) string {
	for int(id) >= len(d.nodeNames) {
		d.nodeNames = append(d.nodeNames, "")
	}
	if d.nodeNames[id] == "" {
		d.nodeNames[id] = d.interner.Node(id).String()
	}
	return d.nodeNames[id]
}

// compile builds the operator node for the interned subtree id, wiring
// its constituents.  The node's emissions go to out.  name is the
// composite type name emitted by this node (the definition name at the
// root, the sub-expression's concrete syntax inside).  Compilation works
// off the interner's representative tree: structural equality means any
// duplicate would compile to an identical node.
func (d *Detector) compile(id expr.NodeID, name string, ctx Context, out emitFunc) (opNode, error) {
	n := d.interner.Node(id)
	var node opNode
	switch x := n.(type) {
	case *expr.Prim:
		p := &passNode{det: d, name: name, out: out}
		if err := d.route(x.Name, p, 0, x.Mask); err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, p)
		return p, nil
	case *expr.Or:
		node = &orNode{det: d, name: name, out: out}
	case *expr.And:
		node = &binaryNode{det: d, name: name, ctx: ctx, seq: false, out: out}
	case *expr.Seq:
		node = &binaryNode{det: d, name: name, ctx: ctx, seq: true, out: out}
	case *expr.Any:
		node = &anyNode{det: d, name: name, ctx: ctx, m: x.M, out: out,
			buf: make([][]*event.Occurrence, len(x.Events))}
	case *expr.Not:
		node = &notNode{det: d, name: name, ctx: ctx, out: out}
	case *expr.Aperiodic:
		node = &aperiodicNode{det: d, name: name, ctx: ctx, cumulative: x.Cumulative, out: out}
	case *expr.Periodic:
		node = &periodicNode{det: d, name: name, ctx: ctx, cumulative: x.Cumulative,
			period: x.Period, out: out, tickType: name + ".tick"}
	case *expr.Plus:
		node = &plusNode{det: d, name: name, delta: x.Delta, out: out,
			timerType: name + ".timer"}
	default:
		return nil, fmt.Errorf("detector: unsupported expression node %T", n)
	}
	if td, ok := node.(timeDriven); ok {
		if d.ts == nil {
			return nil, fmt.Errorf("detector: definition %q uses temporal operators but the detector has no TimeSource", name)
		}
		if err := td.bindScheduler((*detectorScheduler)(d)); err != nil {
			return nil, err
		}
	}
	d.nodes = append(d.nodes, node)
	kids := d.interner.Children(id)
	for i, c := range n.Children() {
		if p, ok := c.(*expr.Prim); ok {
			if err := d.route(p.Name, node, i, p.Mask); err != nil {
				return nil, err
			}
			continue
		}
		if err := d.compileShared(kids[i], ctx, node, i); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// compileShared compiles an inner sub-expression feeding input idx of
// parent, reusing a cached node when the same (context, interned subtree)
// pair was compiled before.  The cache hit path appends one port to the
// existing node's fan-out list — an O(1) integer-keyed lookup, no
// re-serialization, no per-edge closure.
func (d *Detector) compileShared(cid expr.NodeID, ctx Context, parent opNode, idx int) error {
	// The parent edge's canonical position is allotted before the subtree
	// compiles, at the same chronological point in both sharing modes, so
	// corresponding edges order identically whether or not the subtree
	// below ends up deduplicated.
	pos := d.nextPos()
	if !d.sharing {
		// Differential oracle path: every embedding gets a private
		// subgraph, delivering through its own scheduled edge.
		out := func(o *event.Occurrence) { d.enqueue(pos, parent, idx, o) }
		_, err := d.compile(cid, d.nodeName(cid), ctx, out)
		return err
	}
	key := sharedKey{ctx: ctx, id: cid}
	if sh, ok := d.shared[key]; ok {
		sh.outs = append(sh.outs, port{node: parent, idx: idx, pos: pos})
		return nil
	}
	sh := &sharedNode{det: d}
	node, err := d.compile(cid, d.nodeName(cid), ctx, sh.fanOut)
	if err != nil {
		return err
	}
	sh.node = node
	sh.outs = append(sh.outs, port{node: parent, idx: idx, pos: pos})
	d.shared[key] = sh
	return nil
}

// route registers delivery of occurrences of the named type to a node
// input, optionally filtered by an attribute mask.  The type must be
// declared — expr.Validate guarantees that for every name reachable from
// a definition — because routing is indexed by dense TypeID.
func (d *Detector) route(typeName string, n opNode, idx int, mask expr.Mask) error {
	id := d.reg.TypeID(typeName)
	if id == 0 {
		return fmt.Errorf("%w: %q", event.ErrUnknownType, typeName)
	}
	d.routes = growPorts(d.routes, id)
	d.routes[id] = append(d.routes[id], portRef{node: n, idx: idx, mask: mask, pos: d.nextPos()})
	return nil
}

// growPorts extends a TypeID-indexed table to cover id.
func growPorts(s [][]portRef, id event.TypeID) [][]portRef {
	for int(id) >= len(s) {
		s = append(s, nil)
	}
	return s
}

// growHandlers is growPorts for the subscriber table.
func growHandlers(s [][]Handler, id event.TypeID) [][]Handler {
	for int(id) >= len(s) {
		s = append(s, nil)
	}
	return s
}

// Publish delivers a primitive (or externally produced composite)
// occurrence into the graph.  Callers must publish in an order that
// linearly extends the happen-before order of the occurrences' timestamps.
//
// The fast path reads o.TypeID and touches only dense slices; an
// occurrence arriving with the unresolved sentinel (hand-built, or
// decoded without a registry) pays one name lookup via resolve.
func (d *Detector) Publish(o *event.Occurrence) {
	if d.orderCheck {
		if o.Stamp.Less(d.frontier) {
			d.orderViolations++
		}
		d.frontier = core.Max(d.frontier, o.Stamp)
	}
	id := o.TypeID
	if id == 0 {
		id = d.resolve(o)
	}
	if int(id) < len(d.subs) {
		for _, h := range d.subs[id] {
			h(o)
		}
	}
	d.dispatchID(id, o)
	d.drainFinished()
	d.enforceLimit()
}

// resolve is the slow path for occurrences published without a TypeID:
// one registry lookup by name.  It deliberately does not write the ID
// back into the occurrence — the object is the publisher's, the same
// pointer may be queued for other sites' detectors, and dispatch
// correctness does not depend on the field being filled.  It also gives parked subscribers
// (Subscribe before the name existed) their chance to bind.
func (d *Detector) resolve(o *event.Occurrence) event.TypeID {
	id := d.reg.TypeID(o.Type)
	if id != 0 && len(d.pendingSubs) > 0 {
		d.flushPendingSubs(o.Type)
	}
	return id
}

// SetOrderChecking enables a heuristic validation of the publish-order
// contract (publications must linearly extend happen-before): an
// occurrence that happens before the running Max of everything published
// so far is flagged.  The check is exact for streams of primitive
// occurrences whose stamps are pairwise comparable (e.g. a single site's
// total order) and conservative otherwise — it can miss violations hidden
// behind concurrent components, but it never flags a correctly ordered
// stream.  Violations are counted, not fatal — a production deployment
// alarms on OrderViolations, a test asserts it is zero.  Costs one Max
// and one comparison per publication.
func (d *Detector) SetOrderChecking(on bool) { d.orderCheck = on }

// OrderViolations returns the number of publish-order violations observed
// since order checking was enabled.
func (d *Detector) OrderViolations() uint64 { return d.orderViolations }

// dispatchID walks the port list for one type ID merged with the
// canonical delivery schedule: only the nodes with a matching input see
// the occurrence, and the walk does zero map/hash work — dispatch cost
// is proportional to matching subscribers, not to how many definitions
// the detector hosts.  Route entries are in ascending position order
// (registration allots positions monotonically), so the merge is one
// comparison per step; cascaded emissions land in d.pending and
// interleave at their own edges' positions, which is what keeps every
// node's input order independent of subexpression sharing.
func (d *Detector) dispatchID(id event.TypeID, o *event.Occurrence) {
	var routes []portRef
	if int(id) < len(d.routes) {
		routes = d.routes[id]
	}
	ri := 0
	for ri < len(routes) || len(d.pending) > 0 {
		if len(d.pending) > 0 && (ri >= len(routes) || d.pending[0].pos < routes[ri].pos) {
			dl := d.popDelivery()
			dl.node.onChild(int(dl.idx), dl.o)
			dl.o.Release()
			continue
		}
		r := routes[ri]
		ri++
		if len(r.mask) > 0 && !r.mask.Matches(o.Params) {
			continue
		}
		r.node.onChild(r.idx, o)
	}
}

// PublishBatch publishes a watermark-released batch in order — the
// detect stage's batch-consume entry point.  It is exactly equivalent to
// calling Publish per occurrence (including per-publication buffer-limit
// enforcement), so replaying a stream one-by-one or in batches yields
// identical state.  It returns the number published.
func (d *Detector) PublishBatch(occs []*event.Occurrence) int {
	for _, o := range occs {
		d.Publish(o)
	}
	return len(occs)
}

// --- timers -------------------------------------------------------------

type timerEntry struct {
	due  clock.Microticks
	seq  uint64
	fire func(due clock.Microticks)
}

type timerQueue []*timerEntry

func (q timerQueue) Len() int { return len(q) }
func (q timerQueue) Less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}
func (q timerQueue) Swap(i, j int)     { q[i], q[j] = q[j], q[i] }
func (q *timerQueue) Push(x any)       { *q = append(*q, x.(*timerEntry)) }
func (q *timerQueue) Pop() any         { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q timerQueue) peek() *timerEntry { return q[0] }

// detectorScheduler adapts the Detector to the scheduler interface the
// time-driven nodes use.
type detectorScheduler Detector

func (s *detectorScheduler) now() clock.Microticks { return s.ts.Now() }

func (s *detectorScheduler) stampAt(ref clock.Microticks) core.Stamp { return s.ts.StampAt(ref) }

func (s *detectorScheduler) schedule(due clock.Microticks, fire func(clock.Microticks)) {
	d := (*Detector)(s)
	d.timerSeq++
	heap.Push(&d.timers, &timerEntry{due: due, seq: d.timerSeq, fire: fire})
}

// AdvanceTo fires all timers due at or before ref, in (due, scheduling)
// order.  The caller advances its clock.System first, then calls
// AdvanceTo so temporal occurrences are stamped consistently.  Reentrant
// scheduling from timer callbacks (periodic re-arming) is handled.
func (d *Detector) AdvanceTo(ref clock.Microticks) {
	if d.firing {
		return // re-entrant AdvanceTo from a handler; outer loop drains
	}
	d.firing = true
	defer func() { d.firing = false }()
	for d.timers.Len() > 0 && d.timers.peek().due <= ref {
		e := heap.Pop(&d.timers).(*timerEntry)
		e.fire(e.due)
		// Temporal firings emit through scheduled edges and can complete
		// roots; drain both queues per firing to keep (due, seq) order.
		d.drainPending()
		d.drainFinished()
	}
}

// PendingTimers returns the number of armed timers (for tests and the
// simulation driver's quiescence check).
func (d *Detector) PendingTimers() int { return d.timers.Len() }

// NextTimerDue returns the due time of the earliest armed timer and
// whether one exists.
func (d *Detector) NextTimerDue() (clock.Microticks, bool) {
	if d.timers.Len() == 0 {
		return 0, false
	}
	return d.timers.peek().due, true
}
