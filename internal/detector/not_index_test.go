package detector

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// oracleNotNode is notNode as it stood before the first-follower index,
// moved here verbatim (with its trim and stateSize): every terminator
// re-derives T(e1) < T(e2) < T(e3) for every buffered (initiator, E2)
// pair over SetStamp.InOpenSet.  Quadratic, and the definition of what the
// product node must emit, release and retain.
type oracleNotNode struct {
	det  *Detector
	name string
	ctx  Context
	out  emitFunc

	inits []*event.Occurrence
	e2s   []*event.Occurrence
	// eligible is scratch for the per-terminator initiator scan.
	eligible []int
}

//sentinel:hotpath
func (n *oracleNotNode) onChild(idx int, o *event.Occurrence) {
	switch idx {
	case 1: // initiator E1
		if n.ctx == Recent {
			n.inits = releaseAll(n.inits)
			n.pruneE2s()
		}
		n.inits = append(n.inits, retain(o))
	case 0: // E2 — potential spoiler
		for _, init := range n.inits {
			if event.StampLess(init, o) {
				n.e2s = append(n.e2s, retain(o))
				return
			}
		}
		// No live initiator precedes it and none arriving later can
		// (linear extension), so it can never spoil: drop.
	case 2: // terminator E3
		t3 := o.Stamp
		eligible := n.eligible[:0]
		for i, init := range n.inits {
			if event.StampLess(init, o) && !n.spoiled(init.Stamp, t3) {
				eligible = append(eligible, i)
			}
		}
		n.eligible = eligible[:0]
		if len(eligible) == 0 {
			return
		}
		switch n.ctx {
		case Unrestricted, Recent:
			for _, i := range eligible {
				n.det.emit(n.out, n.name, n.inits[i], o)
			}
		case Chronicle:
			n.det.emit(n.out, n.name, n.inits[eligible[0]], o)
			n.inits = removeIndices(n.inits, eligible[:1])
			n.pruneE2s()
		case Continuous:
			for _, i := range eligible {
				n.det.emit(n.out, n.name, n.inits[i], o)
			}
			n.inits = removeIndices(n.inits, eligible)
			n.pruneE2s()
		case Cumulative:
			constituents := make([]*event.Occurrence, 0, len(eligible)+1)
			for _, i := range eligible {
				constituents = append(constituents, n.inits[i])
			}
			constituents = append(constituents, o)
			n.det.emit(n.out, n.name, constituents...)
			n.inits = removeIndices(n.inits, eligible)
			n.pruneE2s()
		}
	}
}

// spoiled reports whether a buffered E2 lies in the open interval
// (t1, t3).
func (n *oracleNotNode) spoiled(t1, t3 core.SetStamp) bool {
	for _, e2 := range n.e2s {
		if e2.Stamp.InOpenSet(t1, t3) {
			return true
		}
	}
	return false
}

// pruneE2s drops (and releases) E2 occurrences no live initiator
// precedes, nil-ing the vacated tail.
func (n *oracleNotNode) pruneE2s() {
	w := 0
outer:
	for _, e2 := range n.e2s {
		for _, init := range n.inits {
			if event.StampLess(init, e2) {
				n.e2s[w] = e2
				w++
				continue outer
			}
		}
		e2.Release()
	}
	for i := w; i < len(n.e2s); i++ {
		n.e2s[i] = nil
	}
	n.e2s = n.e2s[:w]
}

func (n *oracleNotNode) trim(max int) int {
	var d1, d2 int
	n.inits, d1 = trimOldest(n.inits, max)
	n.e2s, d2 = trimOldest(n.e2s, max)
	return d1 + d2
}

func (n *oracleNotNode) stateSize() int { return len(n.inits) + len(n.e2s) }

// useNotOracle replaces every compiled notNode of d by the oracle, on the
// primitive routes and on the shared sub-expression ports that feed it.
// Call it after the last Define and before the first Publish.
func useNotOracle(d *Detector) {
	for i, nd := range d.nodes {
		nn, ok := nd.(*notNode)
		if !ok {
			continue
		}
		or := &oracleNotNode{det: nn.det, name: nn.name, ctx: nn.ctx, out: nn.out}
		d.nodes[i] = or
		for _, ports := range d.routes {
			for j := range ports {
				if ports[j].node == opNode(nn) {
					ports[j].node = or
				}
			}
		}
		for _, sh := range d.shared {
			for j := range sh.outs {
				if sh.outs[j].node == opNode(nn) {
					sh.outs[j].node = or
				}
			}
		}
	}
}

// notEv is one primitive event of a NOT history: type, site (index into
// notSites) and local tick.
type notEv struct {
	typ   string
	site  int
	local int64
}

var notSites = []core.SiteID{"s1", "s2", "s3", "s4"}

func (e notEv) stamp() core.Stamp { return core.DeriveStamp(notSites[e.site], e.local, tRatio) }

// notRun is everything a run of one history may show: the detections in
// order, StateSize after every publication, evictions and the pool ledger.
type notRun struct {
	dets    []string
	sizes   []int
	dropped uint64
	pool    event.PoolStats
}

func (r notRun) diff(o notRun) string {
	for i := 0; i < max(len(r.dets), len(o.dets)); i++ {
		got, want := "(none)", "(none)"
		if i < len(r.dets) {
			got = r.dets[i]
		}
		if i < len(o.dets) {
			want = o.dets[i]
		}
		if got != want {
			return fmt.Sprintf("%d detections, want %d; the first difference is at %d:\n got %s\nwant %s",
				len(r.dets), len(o.dets), i, got, want)
		}
	}
	switch {
	case fmt.Sprint(r.sizes) != fmt.Sprint(o.sizes):
		return fmt.Sprintf("StateSize differs:\n got %v\nwant %v", r.sizes, o.sizes)
	case r.dropped != o.dropped:
		return fmt.Sprintf("dropped %d, want %d", r.dropped, o.dropped)
	case r.pool.Gets != o.pool.Gets || r.pool.Puts != o.pool.Puts:
		return fmt.Sprintf("pool gets/puts %d/%d, want %d/%d", r.pool.Gets, r.pool.Puts, o.pool.Gets, o.pool.Puts)
	}
	return ""
}

// pooledDetector builds what the site runtime gives a detector: a registry
// with the given primitive types, a roster over the sites, a pool that
// interns stamps against it, and one definition X.
func pooledDetector(tb testing.TB, sites []core.SiteID, types []string, expression string, ctx Context) (*Detector, *event.Pool, *core.Roster) {
	tb.Helper()
	reg := event.NewRegistry()
	for _, name := range types {
		reg.MustDeclare(name, event.Explicit)
	}
	roster := core.NewRoster(sites)
	pool := event.NewPool(roster)
	d := New(sites[0], reg, nil)
	d.UsePool(pool)
	if _, err := d.DefineString("X", expression, ctx); err != nil {
		tb.Fatalf("define %q: %v", expression, err)
	}
	return d, pool, roster
}

// runNot publishes the history in the given order into a pooled detector
// (Strict: a double put panics) holding one definition, with the product
// notNode or the oracle.  Every primitive's creator reference is dropped
// right after its publication, as the site runtime does, so the node
// buffers hold the only references.  The product run checks the index
// after every publication.
func runNot(t *testing.T, expression string, ctx Context, limit int, oracle bool, evs []notEv) notRun {
	t.Helper()
	d, pool, roster := pooledDetector(t, notSites, []string{"A", "B", "C", "D"}, expression, ctx)
	pool.Strict = true
	d.SetBufferLimit(limit)
	if oracle {
		useNotOracle(d)
	}
	var run notRun
	d.Subscribe("X", func(o *event.Occurrence) {
		parts := make([]string, 0, 4)
		for _, p := range o.Flatten() {
			parts = append(parts, fmt.Sprintf("%s@%s:%d", p.Type, p.Stamp[0].Site, p.Stamp[0].Local))
		}
		run.dets = append(run.dets, fmt.Sprintf("%s %s", strings.Join(parts, " "), o.Stamp))
	})
	gens := make(map[*event.Occurrence]uint32)
	for _, e := range evs {
		st := e.stamp()
		o := pool.GetPrimitive(e.typ, event.Explicit, st, roster.MustSite(st.Site), nil)
		gens[o] = o.Gen()
		d.Publish(o)
		o.Release()
		run.sizes = append(run.sizes, d.StateSize())
		if !oracle {
			checkNotIndex(t, d, gens)
		}
	}
	run.dropped, run.pool = d.DroppedOccurrences(), pool.Stats()
	return run
}

// checkNotIndex asserts the invariants of every notNode's first-follower
// index against the string-sited algebra: first[i] is exactly the earliest
// buffered E2 that inits[i] precedes, and nothing buffered was recycled
// (a live reference, and for primitives the generation they were
// published with).
func checkNotIndex(t *testing.T, d *Detector, gens map[*event.Occurrence]uint32) {
	t.Helper()
	for _, nd := range d.nodes {
		n, ok := nd.(*notNode)
		if !ok {
			continue
		}
		if len(n.first) != len(n.inits) {
			t.Fatalf("%d first-follower entries for %d initiators", len(n.first), len(n.inits))
		}
		for _, buf := range [][]*event.Occurrence{n.inits, n.e2s} {
			for _, o := range buf {
				if o.Refs() < 1 || (len(o.Constituents) == 0 && gens[o] != o.Gen()) {
					t.Fatalf("buffered occurrence was recycled: refs %d, generation %d", o.Refs(), o.Gen())
				}
			}
		}
		for i, init := range n.inits {
			want := int32(noFollower)
			for j, e2 := range n.e2s {
				if init.Stamp.Less(e2.Stamp) {
					want = int32(j)
					break
				}
			}
			if n.first[i] != want {
				t.Fatalf("first[%d] = %d, want %d (%d initiators, %d E2s)", i, n.first[i], want, len(n.inits), len(n.e2s))
			}
		}
	}
}

// genNotHistory draws n events over nSites sites with their local ticks
// packed into a few global granules, so that concurrency across sites is
// the common case; ticks are distinct per site.
func genNotHistory(r *rand.Rand, types []string, nSites, n int) []notEv {
	span := int64(3+r.Intn(5)) * tRatio
	used := make(map[[2]int64]bool)
	evs := make([]notEv, 0, n)
	for len(evs) < n {
		e := notEv{typ: types[r.Intn(len(types))], site: r.Intn(nSites), local: r.Int63n(span)}
		if k := [2]int64{int64(e.site), e.local}; !used[k] {
			used[k] = true
			evs = append(evs, e)
		}
	}
	return evs
}

// linearExtension returns a random delivery order of evs that linearly
// extends "<": it repeatedly draws one of the remaining events that no
// other remaining event happens before.
func linearExtension(r *rand.Rand, evs []notEv) []notEv {
	left := append([]notEv(nil), evs...)
	out := make([]notEv, 0, len(evs))
	for len(left) > 0 {
		var minimal []int
	candidates:
		for i, e := range left {
			for _, p := range left {
				if p.stamp().Less(e.stamp()) {
					continue candidates
				}
			}
			minimal = append(minimal, i)
		}
		i := minimal[r.Intn(len(minimal))]
		out = append(out, left[i])
		left = append(left[:i], left[i+1:]...)
	}
	return out
}

var allContexts = []Context{Unrestricted, Recent, Chronicle, Continuous, Cumulative}

// TestNotIndexMatchesPairScan is the differential property for the
// first-follower index: on random multi-site histories dense in "~",
// delivered in several random linear extensions of "<", under all five
// contexts, the product notNode emits, retains (StateSize after every
// publication) and recycles (pool Gets/Puts) exactly what the pair scan
// does.  The composite initiator and the composite spoiler put set
// stamps of two components on either side of the index.
func TestNotIndexMatchesPairScan(t *testing.T) {
	exprs := []struct {
		body  string
		types []string
	}{
		{"NOT(C)[A, D]", []string{"A", "A", "C", "C", "D", "D", "D"}},
		{"NOT(C)[(A AND B), D]", []string{"A", "B", "C", "C", "D", "D"}},
		{"NOT((B AND C))[A, D]", []string{"A", "A", "B", "C", "D", "D"}},
	}
	detections, guardBand := 0, 0
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(7000 + trial)))
		x := exprs[trial%len(exprs)]
		hist := genNotHistory(r, x.types, 3+r.Intn(2), 30+r.Intn(40))
		for ext := 0; ext < 3; ext++ {
			order := linearExtension(r, hist)
			for _, ctx := range allContexts {
				got := runNot(t, x.body, ctx, 0, false, order)
				want := runNot(t, x.body, ctx, 0, true, order)
				if d := got.diff(want); d != "" {
					t.Fatalf("trial %d extension %d: %s under %v: %s", trial, ext, x.body, ctx, d)
				}
				detections += len(got.dets)
			}
			guardBand += countGuardBand(order)
		}
	}
	if detections < 1000 || guardBand < 100 {
		t.Fatalf("%d detections, %d guard-band terminators: the property is vacuous", detections, guardBand)
	}
}

// countGuardBand counts the (A, C, D) triples of a delivery order with
// A < C, C ~ D and A < D: the terminators the index cannot answer from the
// first follower alone.
func countGuardBand(order []notEv) int {
	n := 0
	for _, a := range order {
		for _, c := range order {
			for _, d := range order {
				if a.typ == "A" && c.typ == "C" && d.typ == "D" && a.stamp().Less(c.stamp()) &&
					a.stamp().Less(d.stamp()) && c.stamp().Concurrent(d.stamp()) {
					n++
				}
			}
		}
	}
	return n
}

// TestNotFirstFollowerConcurrentLaterFollowerSpoils pins the case the
// index walks for: the first follower c1 of the initiator is concurrent
// with the terminator, but a later-arrived follower c2 is inside the
// open interval, so the initiator is spoiled.  The other half — c1 ~ D the
// only follower, so nothing is spoiled — is
// TestNotConcurrentSpoilerDoesNotSpoil.
func TestNotFirstFollowerConcurrentLaterFollowerSpoils(t *testing.T) {
	order := []notEv{
		{"A", 0, 100}, // global 10
		{"C", 1, 205}, // c1: follows A; global 20 at another site, so c1 ~ D
		{"C", 0, 208}, // c2: follows A, precedes D on D's own site
		{"D", 0, 210}, // global 21
	}
	for _, ctx := range allContexts {
		got := runNot(t, "NOT(C)[A, D]", ctx, 0, false, order)
		if len(got.dets) != 0 {
			t.Errorf("%v: fired %v although c2 lies inside the interval", ctx, got.dets)
		}
		if d := got.diff(runNot(t, "NOT(C)[A, D]", ctx, 0, true, order)); d != "" {
			t.Errorf("%v: %s", ctx, d)
		}
	}
}
