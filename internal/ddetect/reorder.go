// Package ddetect implements distributed composite event detection
// (Section 5 of the paper): sites raise primitive events stamped by their
// own synchronized-within-Π clocks, forward them over the simulated
// network to the sites hosting composite event definitions, and each
// hosting site's detector evaluates the Snoop operators over the
// composite timestamp algebra of internal/core.
//
// The operator nodes of internal/detector require events in an order that
// linearly extends the composite happen-before order.  Under network
// jitter and clock skew, arrival order is no such thing, so each site runs
// a reorderer with two stages:
//
//  1. FIFO restore: the bus stamps per-link sequence numbers; messages are
//     buffered until their predecessors arrive, recovering each source's
//     emission order (which is local-clock order, hence happen-before
//     order within the source).
//  2. Watermark release: every site periodically heartbeats its current
//     global time.  Because local clocks are monotone, a source whose
//     frontier (last in-order global time) is w can never again emit an
//     event with global time < w.  Released events are published in
//     ascending (global, site, local, arrival) key order, a linear
//     extension of < for the primitive (singleton-stamp) occurrences
//     exchanged between sites.  Under the default ReleaseTotalOrder the
//     heap's top, keyed (g, s_e, …), is released as soon as that order
//     fixes its place: once every gating source s has frontier f_s > g,
//     or f_s = g and s ≥ s_e.  A primitive source s at frontier f never
//     again sends a key below (f, s, ·), which sorts after the top when
//     s > s_e; when s = s_e the top came down s's own stream, and FIFO
//     order, s's monotone local clock and the arrival tie-break put every
//     later key of s after it.  So nothing still to arrive can happen
//     before the released event (Definition 4.7) or sort ahead of it:
//     the 2g_g precedence orders events only across granules, and inside
//     one the key decides.  The exception is ReleaseExtension, which
//     releases as soon as min over all frontiers ≥ g − 1: any future event
//     f then has g_f ≥ g − 1, which still rules out f happening before the
//     released event, but no longer fixes the order among concurrent ones.
//
// For hierarchically forwarded *composite* occurrences the (global, site,
// local) key is still used with the stamp's maximal global component;
// under extreme clock skew two multi-component stamps can in principle be
// released in an order that swaps a happen-before pair (never producing a
// false detection — only possibly missing one).  The default deployment —
// each definition fully evaluated at one hosting site over primitive
// streams — is exact.  Because a composite's key site is not its
// sender's, the site argument above covers neither side of a forward: a
// source that forwards composites to a reorderer (marked at System.seal)
// holds every key at its frontier's global until the frontier passes it,
// and a forwarded composite keyed by site s is held while s itself is at
// its global, since s's own earlier events may still be in flight.
//
// All per-source state is indexed by dense roster index (core.Site), not
// by SiteID string: a full-membership reorderer (an event sink's) holds
// one sourceState slot per roster member, addressed directly, and a
// self-only reorderer (every other site's) holds exactly one.  Because
// roster index order equals canonical SiteID order, the dense release key
// orders identically to the old string key.
package ddetect

import (
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wire"
)

// sourceState tracks one source's stream at a receiving site.  One link
// sequence number covers one bus message, which since the transport
// started coalescing may carry several envelopes — pending therefore
// buffers envelope runs, not single envelopes.  States live by value in
// the reorderer's dense slice; the pending ring is made lazily, on a
// source's first out-of-order arrival, so a site with n in-order sources
// carries n small structs and no rings.
type sourceState struct {
	nextSeq  uint64
	pending  *seqRing
	frontier int64
	// rank is the lowest key site the source may still send at the global
	// of its frontier: its roster index, or forwarderSite once it is
	// marked as forwarding composite occurrences here (System.seal).  A
	// composite's release key carries the site of its max-global
	// component, not its sender's, so a forwarder's frontier f bounds
	// only the global of what it still sends: it holds every key at
	// global f until its frontier passes f.
	rank core.Site
	// excluded marks a decommissioned source: its frontier no longer
	// gates the watermark (see System.Decommission).
	excluded bool
}

// seqRing holds a source's early runs by sequence number: the run of seq
// sits in slots[seq & (len(slots)−1)], and a nil slot is an empty one.
// Every buffered seq lies in [nextSeq+1, nextSeq+len(slots)), so no two
// share a slot.  A ring starts with ringInit slots and doubles only when
// a seq lands beyond its capacity.
type seqRing struct {
	slots [][]wire.Envelope
}

// ringInit is a pending ring's first capacity: four slots of one slice
// header each, 120 bytes with the ring's own header where the smallest
// map it replaced took 336 (amd64).
const ringInit = 4

// slot returns seq's slot.
func (q *seqRing) slot(seq uint64) *[]wire.Envelope {
	return &q.slots[seq&uint64(len(q.slots)-1)]
}

// held returns the run buffered for seq, or nil.
func (st *sourceState) held(seq uint64) []wire.Envelope {
	if st.pending == nil || seq-st.nextSeq >= uint64(len(st.pending.slots)) {
		return nil
	}
	return *st.pending.slot(seq)
}

// emptyRun stands for a buffered run of no envelopes, so that a held slot
// is never nil.
var emptyRun = []wire.Envelope{}

// reorderer restores a linear extension of happen-before from out-of-order
// arrivals.  Not safe for concurrent use; owned by its site.
type reorderer struct {
	roster *core.Roster
	// self is the owning site's index for a self-only reorderer (its one
	// sourceState is sources[0]); core.NoSite marks full membership, where
	// sources is roster-length and addressed by index directly.
	self    core.Site
	sources []sourceState
	ready   readyQueue
	arrival uint64

	// buffered counts FIFO-pending envelopes for quiescence checks.
	buffered int
	// free holds the emptied storage of drained runs, capacity kept, for
	// the next out-of-order arrival of any source to copy its run into.
	free [][]wire.Envelope
	// gating counts non-excluded sources, so exhaustion (everything
	// decommissioned) is O(1) to detect.
	gating int
	// minF caches minFrontier; minDirty forces a recompute after a
	// frontier advance or an exclusion.  The cache is what keeps the
	// release scan from walking the full frontier vector on every tick —
	// a site whose frontiers did not move pays one flag check.
	minF     int64
	minDirty bool
	// lowAt, recomputed with minF, is the lowest rank among the gating
	// sources whose frontier is minF: the lowest key site those sources
	// may still send at global minF.
	lowAt core.Site
	// forwarders lists the slots of the sources ranked forwarderSite.
	forwarders []int
	// stale records that something release-relevant changed (an event
	// ingested, a frontier advanced, a source excluded) since the last
	// release call; a clean reorderer's release is an immediate no-op.
	stale bool
}

// newReorderer builds a full-membership reorderer: one source slot per
// roster member, for the event sinks that can hear from everyone.
func newReorderer(roster *core.Roster) *reorderer {
	r := &reorderer{
		roster:   roster,
		self:     core.NoSite,
		sources:  make([]sourceState, roster.Len()),
		gating:   roster.Len(),
		minDirty: true,
	}
	for i := range r.sources {
		r.sources[i] = sourceState{nextSeq: 1, frontier: math.MinInt64, rank: core.Site(i)}
	}
	return r
}

// newSelfReorderer builds a self-only reorderer for a site outside every
// needers list: it hears nobody but itself, so one source slot suffices
// and its watermark gates only on its own clock.
func newSelfReorderer(roster *core.Roster, self core.Site) *reorderer {
	return &reorderer{
		roster:   roster,
		self:     self,
		sources:  []sourceState{{nextSeq: 1, frontier: math.MinInt64, rank: self}},
		gating:   1,
		minDirty: true,
	}
}

// slot maps a source's roster index to its position in sources, or -1 for
// a site this reorderer does not listen to.
func (r *reorderer) slot(from core.Site) int {
	if r.self != core.NoSite {
		if from == r.self {
			return 0
		}
		return -1
	}
	if from < 0 || int(from) >= len(r.sources) {
		return -1
	}
	return int(from)
}

// siteID renders a source index for error messages.
func (r *reorderer) siteID(from core.Site) core.SiteID {
	if r.roster != nil && from >= 0 && int(from) < r.roster.Len() {
		return r.roster.ID(from)
	}
	return core.SiteID(fmt.Sprintf("#%d", from))
}

// source resolves and screens one arrival: the sender must be known, and
// its sequence number neither already consumed nor already buffered.
func (r *reorderer) source(from core.Site, seq uint64) (*sourceState, error) {
	i := r.slot(from)
	if i < 0 {
		return nil, fmt.Errorf("ddetect: message from unknown source %q", r.siteID(from))
	}
	st := &r.sources[i]
	if seq < st.nextSeq {
		return nil, fmt.Errorf("ddetect: duplicate seq %d from %q (next %d)", seq, r.siteID(from), st.nextSeq)
	}
	if st.held(seq) != nil {
		return nil, fmt.Errorf("ddetect: duplicate buffered seq %d from %q", seq, r.siteID(from))
	}
	return st, nil
}

// accept ingests a single-envelope message from a source with its link
// sequence number, draining any in-order run it completes.  The common
// in-order case bypasses the pending ring entirely.
func (r *reorderer) accept(from core.Site, seq uint64, env wire.Envelope) error {
	st, err := r.source(from, seq)
	if err != nil {
		return err
	}
	if seq == st.nextSeq {
		st.nextSeq++
		r.ingest(st, env)
		r.drain(st)
		return nil
	}
	r.buffer(st, seq, []wire.Envelope{env})
	return nil
}

// acceptBatch ingests one coalesced message: a run of envelopes sharing a
// single link sequence number, in their sender's emission order.  The
// in-order case ingests straight from the caller's slice, which the
// caller may recycle as soon as acceptBatch returns; an out-of-order
// arrival is copied into storage the reorderer owns.
func (r *reorderer) acceptBatch(from core.Site, seq uint64, envs []wire.Envelope) error {
	st, err := r.source(from, seq)
	if err != nil {
		return err
	}
	if seq == st.nextSeq {
		st.nextSeq++
		for _, env := range envs {
			r.ingest(st, env)
		}
		r.drain(st)
		return nil
	}
	r.buffer(st, seq, envs)
	return nil
}

// acceptFrontier ingests a message that carries one heartbeat and nothing
// else — most of what a sink receives: the frontier global, raised at the
// nominal instant at.  It is accept for that envelope without the envelope:
// the same screening, the same buffering of an out-of-order arrival (as the
// one-envelope run it is), the same drain behind an in-order one.
func (r *reorderer) acceptFrontier(from core.Site, seq uint64, global int64, at clock.Microticks) error {
	st, err := r.source(from, seq)
	if err != nil {
		return err
	}
	if seq == st.nextSeq {
		st.nextSeq++
		r.advance(st, global)
		r.drain(st)
		return nil
	}
	r.buffer(st, seq, []wire.Envelope{{Kind: wire.KindHeartbeat, Global: global, RaisedAt: at}})
	return nil
}

// buffer copies an out-of-order message's run into storage from the free
// list and holds it in seq's ring slot until the sequence gap before it
// fills; the caller keeps its slice.  It is the accept methods' cold half,
// kept out of line so that their in-order half stays small.
//
//go:noinline
func (r *reorderer) buffer(st *sourceState, seq uint64, run []wire.Envelope) {
	if st.pending == nil {
		st.pending = &seqRing{slots: make([][]wire.Envelope, ringInit)}
	}
	for seq-st.nextSeq >= uint64(len(st.pending.slots)) {
		st.pending.grow(st.nextSeq)
	}
	var held []wire.Envelope
	if n := len(r.free) - 1; n >= 0 {
		held = r.free[n]
		r.free[n] = nil
		r.free = r.free[:n]
	}
	held = append(held[:0], run...)
	if held == nil {
		held = emptyRun
	}
	*st.pending.slot(seq) = held
	r.buffered += len(run)
}

// grow doubles the ring, moving each held run — a seq in [next,
// next+len(slots)) — to its slot under the wider mask.
func (q *seqRing) grow(next uint64) {
	old := q.slots
	mask := uint64(len(old) - 1)
	q.slots = make([][]wire.Envelope, 2*len(old))
	for i, run := range old {
		if run != nil {
			*q.slot(next + (uint64(i)-next)&mask) = run
		}
	}
}

// drain consumes the in-order run now sitting in the pending ring and
// returns each drained run's storage to the free list.
func (r *reorderer) drain(st *sourceState) {
	for st.pending != nil {
		slot := st.pending.slot(st.nextSeq)
		next := *slot
		if next == nil {
			return
		}
		*slot = nil
		st.nextSeq++
		r.buffered -= len(next)
		for _, env := range next {
			r.ingest(st, env)
		}
		if cap(next) > 0 {
			clear(next)
			r.free = append(r.free, next[:0])
		}
	}
}

// ingest processes one in-order envelope: events join the ready queue and
// advance the frontier; heartbeats only advance the frontier.
func (r *reorderer) ingest(st *sourceState, env wire.Envelope) {
	switch env.Kind {
	case wire.KindEvent:
		g := env.Occ.Stamp.MaxGlobal()
		if g > st.frontier {
			st.frontier = g
			r.minDirty = true
		}
		r.arrival++
		k := r.releaseKey(env.Occ, r.arrival)
		k.own = k.site == st.rank
		r.ready.push(readyItem{env: env, key: k})
		r.stale = true
	case wire.KindHeartbeat:
		r.advance(st, env.Global)
	}
}

// advance moves a source's frontier up to a heartbeat's global time; one
// not above the current frontier changes nothing.
func (r *reorderer) advance(st *sourceState, global int64) {
	if global > st.frontier {
		st.frontier = global
		r.minDirty = true
		r.stale = true
	}
}

// setFrontier advances a source's frontier directly (used for the site's
// own clock, which needs no heartbeat message).
func (r *reorderer) setFrontier(from core.Site, g int64) {
	if i := r.slot(from); i >= 0 {
		r.advance(&r.sources[i], g)
	}
}

// forwarderSite is a composite forwarder's rank: below every roster index,
// since its composites may carry any site.
const forwarderSite core.Site = -1

// minFrontier returns the minimum frontier over the sources still gating
// the watermark, recomputing the cache (and lowAt with it) only after a
// frontier actually moved.  With every source excluded there is nothing
// left to wait for and buffered events release unconditionally.
func (r *reorderer) minFrontier() int64 {
	if !r.minDirty {
		return r.minF
	}
	r.minDirty = false
	if r.gating == 0 {
		r.minF = math.MaxInt64
		return r.minF
	}
	// A forwarder ranks below every site at its frontier, so forwarders
	// go first.  After them, ranks ascend with the slots, so the first
	// source found at a lower frontier has the lowest rank there: one
	// comparison per source, as for the minimum alone.
	min, low := int64(math.MaxInt64), core.Site(math.MaxInt32)
	for _, i := range r.forwarders {
		if st := &r.sources[i]; !st.excluded && st.frontier < min {
			min, low = st.frontier, forwarderSite
		}
	}
	for i := range r.sources {
		st := &r.sources[i]
		if st.excluded {
			continue
		}
		if st.frontier < min {
			min, low = st.frontier, st.rank
		}
	}
	r.minF, r.lowAt = min, low
	return min
}

// forwarding marks a source as one that forwards composite occurrences to
// this reorderer (see sourceState.rank).
func (r *reorderer) forwarding(from core.Site) {
	if i := r.slot(from); i >= 0 && r.sources[i].rank != forwarderSite {
		r.sources[i].rank = forwarderSite
		r.forwarders = append(r.forwarders, i)
		r.minDirty = true
	}
}

// exclude removes a source from watermark gating.  Its already-buffered
// FIFO stream remains valid; only its (now silent) clock stops holding
// everyone else back.
func (r *reorderer) exclude(from core.Site) {
	if i := r.slot(from); i >= 0 && !r.sources[i].excluded {
		r.sources[i].excluded = true
		r.gating--
		r.minDirty = true
		r.stale = true
	}
}

// ReleaseMode selects how aggressively the watermark releases events.
type ReleaseMode int

const (
	// ReleaseTotalOrder (the default) releases an event keyed (g, s, …)
	// once no key below it can still arrive: every gating frontier is
	// above g, or at g on a source that sorts at or after s (see the
	// package comment for why that is safe, and for forwarded
	// composites).  The release sequence is globally sorted by (global,
	// site, local) — a deterministic total order identical to a
	// centralized detector fed the same stamps — at the cost of waiting
	// for the sources at g that sort before s to pass g.
	ReleaseTotalOrder ReleaseMode = iota
	// ReleaseExtension releases as soon as no *happen-before* violation
	// is possible (g ≤ min frontier + 1).  Lowest latency; the sequence
	// is only a linear extension of <, so concurrent events may be
	// interleaved differently than at a centralized oracle, which can
	// change which of several equally valid constituents a context
	// (Recent/Chronicle/…) picks.
	ReleaseExtension
)

func (m ReleaseMode) String() string {
	switch m {
	case ReleaseTotalOrder:
		return "total-order"
	case ReleaseExtension:
		return "extension"
	default:
		return fmt.Sprintf("ReleaseMode(%d)", int(m))
	}
}

// slack returns the release threshold offset relative to the minimum
// frontier: release while top.global ≤ minFrontier + slack.
func (m ReleaseMode) slack() int64 {
	if m == ReleaseExtension {
		return 1
	}
	return -1
}

// releaseInto pops every stable event in (global, site, local, arrival)
// order, appending to the caller-owned dst and returning the extended
// slice.  An event is stable once its maximal global component is at
// most minFrontier + slack(mode), or once placed: under ReleaseExtension
// the first condition already covers the second.
//
// A reorderer nothing touched since its last release returns immediately:
// no event arrived and no frontier moved, so the stable set cannot have
// grown.  This is what shards the crank's release scan — of thousands of
// sites, only the ones with fresh arrivals or watermark movement do any
// work, and only they consult the frontier vector.
func (r *reorderer) releaseInto(mode ReleaseMode, dst []wire.Envelope) []wire.Envelope {
	if !r.stale || len(r.ready) == 0 {
		return dst
	}
	r.stale = false
	minF := r.minFrontier()
	if minF == math.MinInt64 {
		return dst
	}
	for len(r.ready) > 0 {
		if top := r.ready[0].key; top.global > minF+mode.slack() && !r.placed(top) {
			break
		}
		dst = append(dst, r.ready.pop().env)
	}
	return dst
}

// placed reports that no key below k can still arrive, k's global being
// the minimum frontier: every gating source at that frontier ranks above
// k's site, or at it when k came down that source's own stream.  A
// primitive source at frontier f only ever sends keys of (f, its own
// site, …) or above, and its own later keys sort after its earlier ones.
func (r *reorderer) placed(k key) bool {
	return k.global == r.minF && (k.site < r.lowAt || k.site == r.lowAt && k.own)
}

// pendingEvents reports buffered FIFO gaps plus unreleased ready events,
// for quiescence checks.
func (r *reorderer) pendingEvents() int { return r.buffered + len(r.ready) }

// key orders ready events: ascending maximal global, then site, then the
// local tick of the max-global component, then arrival.  For singleton
// stamps this is a linear extension of the composite happen-before order
// (see the package comment).  The site is a dense roster index: interning
// preserves SiteID order, so the integer compare in less orders exactly
// as the string compare it replaced.
type key struct {
	global int64
	site   core.Site
	// own reports that the event arrived on the stream of the site it is
	// keyed by, from a source that forwards no composites: then that
	// source's later keys at the same global sort after it (see placed).
	// It takes no part in the order.
	own     bool
	local   int64
	arrival uint64
}

// releaseKey interns the occurrence's max-global stamp component into the
// dense ordering key.  An occurrence carrying an interned stamp (pooled
// raise, roster-aware decode) yields its component pre-interned — no
// roster map lookup; the two paths agree because interning preserves
// SiteID order and the component selection rule is identical
// (TestRSetStampMaxGlobalComponent pins it against the string form).
func (r *reorderer) releaseKey(o *event.Occurrence, arrival uint64) key {
	if len(o.Interned) > 0 {
		best := o.Interned.MaxGlobalComponent()
		return key{global: best.Global, site: best.Site, local: best.Local, arrival: arrival}
	}
	best := o.Stamp.MaxGlobalComponent()
	return key{global: best.Global, site: r.roster.MustSite(best.Site), local: best.Local, arrival: arrival}
}

func (k key) less(u key) bool {
	if k.global != u.global {
		return k.global < u.global
	}
	if k.site != u.site {
		return k.site < u.site
	}
	if k.local != u.local {
		return k.local < u.local
	}
	return k.arrival < u.arrival
}

type readyItem struct {
	env wire.Envelope
	key key
}

// readyQueue is a value-based binary min-heap on key.  It deliberately
// avoids container/heap: items are stored by value in one backing array
// (no per-item allocation) and push/pop sift directly (no interface
// boxing on the hot per-event path).
type readyQueue []readyItem

func (q *readyQueue) push(it readyItem) {
	*q = append(*q, it)
	h := *q
	// Sift up.
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].key.less(h[parent].key) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *readyQueue) pop() readyItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = readyItem{} // release the envelope's occurrence pointer
	h = h[:n]
	*q = h
	// Sift down.
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].key.less(h[l].key) {
			least = r
		}
		if !h[least].key.less(h[i].key) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
