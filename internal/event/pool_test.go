package event

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func testRoster() *core.Roster {
	return core.NewRoster([]core.SiteID{"a", "b", "c"})
}

func stampAt(site core.SiteID, g, l int64) core.Stamp {
	return core.Stamp{Site: site, Global: g, Local: l}
}

// TestPoolPrimitiveLifecycle checks the basic get → release → recycle
// round trip, the generation counter, and the field-zeroing contract.
func TestPoolPrimitiveLifecycle(t *testing.T) {
	r := testRoster()
	p := NewPool(r)
	o := p.GetPrimitive("A", Explicit, stampAt("a", 3, 30), r.MustSite("a"), Params{"n": 1})
	if !o.Pooled() || o.Refs() != 1 {
		t.Fatalf("fresh pooled occurrence: pooled=%v refs=%d", o.Pooled(), o.Refs())
	}
	if len(o.Interned) != 1 || o.Interned[0].Site != r.MustSite("a") {
		t.Fatalf("interned singleton not filled: %v", o.Interned)
	}
	gen := o.Gen()
	o.Release()
	if o.Gen() != gen+1 {
		t.Fatalf("recycle did not bump generation: %d -> %d", gen, o.Gen())
	}
	if o.Params != nil || o.Stamp != nil || o.Interned != nil || o.Constituents != nil && len(o.Constituents) != 0 {
		t.Fatalf("recycled occurrence not cleared: %+v", o)
	}
	st := p.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.Misses != 1 {
		t.Fatalf("stats after one round trip: %+v", st)
	}
	// The next get must reuse recycled storage (single goroutine, so the
	// sync.Pool's private slot serves it back).  Under the race detector
	// sync.Pool deliberately drops a quarter of Puts on the floor, so
	// allow a few round trips rather than pinning the very next get.
	reused := false
	for i := 0; i < 32 && !reused; i++ {
		before := p.Stats().Misses
		o2 := p.GetPrimitive("B", Explicit, stampAt("b", 4, 40), r.MustSite("b"), nil)
		reused = p.Stats().Misses == before
		o2.Release()
	}
	if !reused {
		t.Fatalf("no get reused recycled storage: %+v", p.Stats())
	}
}

// TestPoolCompositeMatchesNewComposite pins the pooled constructor against
// the plain one: same type/site/constituents and byte-identical stamps,
// whether the fold ran interned or string-form.
func TestPoolCompositeMatchesNewComposite(t *testing.T) {
	r := testRoster()
	p := NewPool(r)
	a := p.GetPrimitive("A", Explicit, stampAt("a", 3, 30), r.MustSite("a"), nil)
	b := p.GetPrimitive("B", Explicit, stampAt("b", 3, 31), r.MustSite("b"), nil)
	c := p.GetPrimitive("C", Explicit, stampAt("c", 9, 90), r.MustSite("c"), nil)

	want := NewComposite("X", "c", a, b, c)
	got := p.GetComposite("X", "c", []*Occurrence{a, b, c})
	if !got.Stamp.Equal(want.Stamp) {
		t.Fatalf("pooled composite stamp %s, plain %s", got.Stamp, want.Stamp)
	}
	if len(got.Interned) != len(got.Stamp) {
		t.Fatalf("interned fold length %d vs stamp %d", len(got.Interned), len(got.Stamp))
	}
	if a.Refs() != 2 || b.Refs() != 2 || c.Refs() != 2 {
		t.Fatalf("constituents not retained: %d %d %d", a.Refs(), b.Refs(), c.Refs())
	}

	// Mixed interned/uninterned constituents fall back to the string fold
	// with the same resulting stamp.
	plain := NewPrimitive("D", Explicit, stampAt("a", 9, 91), nil)
	got2 := p.GetComposite("Y", "a", []*Occurrence{c, plain})
	want2 := NewComposite("Y", "a", c, plain)
	if !got2.Stamp.Equal(want2.Stamp) {
		t.Fatalf("mixed composite stamp %s, plain %s", got2.Stamp, want2.Stamp)
	}
	if got2.Interned != nil {
		t.Fatalf("mixed composite should not carry an interned stamp: %v", got2.Interned)
	}

	// Cascade: releasing the creator refs and then the composites frees
	// everything bottom-up.
	a.Release()
	b.Release()
	c.Release()
	gen := a.Gen()
	got2.Release() // frees got2, releases c and plain
	got.Release()  // frees got, releases a, b, c -> all recycled
	if a.Gen() != gen+1 {
		t.Fatalf("constituent not cascaded on composite recycle")
	}
	st := p.Stats()
	if st.Puts != 5 { // a, b, c, got, got2
		t.Fatalf("expected 5 puts after cascade, got %+v", st)
	}
}

// TestPoolDoublePutAvertedAndStrict checks both double-put modes: counted
// and averted by default, panic under Strict — the generation-counter
// safety rail the race tests exercise.
func TestPoolDoublePutAvertedAndStrict(t *testing.T) {
	r := testRoster()
	p := NewPool(r)
	o := p.GetPrimitive("A", Explicit, stampAt("a", 1, 10), r.MustSite("a"), nil)
	o.Release()
	o.Release() // double put: averted, counted
	if st := p.Stats(); st.DoublePuts != 1 {
		t.Fatalf("double put not counted: %+v", st)
	}

	p.Strict = true
	o2 := p.GetPrimitive("B", Explicit, stampAt("b", 1, 10), r.MustSite("b"), nil)
	o2.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Strict pool did not panic on double put")
			}
		}()
		o2.Release()
	}()
}

// TestPoolUseAfterPutDetection demonstrates the generation check: a holder
// of a stale pointer can detect that the object was recycled (and possibly
// reissued) underneath it.
func TestPoolUseAfterPutDetection(t *testing.T) {
	r := testRoster()
	p := NewPool(r)
	o := p.GetPrimitive("A", Explicit, stampAt("a", 1, 10), r.MustSite("a"), nil)
	gen := o.Gen()
	o.Release()
	if o.Gen() == gen {
		t.Fatalf("stale holder cannot detect recycle: generation unchanged")
	}
}

// TestUnpooledOpsAreNoops pins the property the engine's unconditional
// ledger relies on: Retain/Release on plain or nil occurrences do nothing.
func TestUnpooledOpsAreNoops(t *testing.T) {
	o := NewPrimitive("A", Explicit, stampAt("a", 1, 10), nil)
	o.Retain()
	o.Release()
	o.Release()
	if o.Pooled() {
		t.Fatalf("plain occurrence claims to be pooled")
	}
	var nilOcc *Occurrence
	nilOcc.Retain()
	nilOcc.Release()
}

// TestPoolLifecycleBothForms runs one scripted ledger — creator
// references, extra retains, a composite that cascades into its
// constituents, a double put — and checks the reference counts after every
// step, the generation bumps and the counters.  Misses are left out
// (sync.Pool drops puts at random under the race detector).  The names
// date from when the pool had a second, atomic form beside the
// single-owner one; they are kept so the test keeps its identity in the
// suite's history.
func TestPoolLifecycleBothForms(t *testing.T) {
	t.Run("owned", testPoolLifecycle)
}

func testPoolLifecycle(t *testing.T) {
	steps := []struct {
		name string
		do   func(a, b, x *Occurrence)
		// refs and gen deltas expected of a, b and x after the step.
		refs [3]int32
		gens [3]uint32
	}{
		{"built", func(a, b, x *Occurrence) {}, [3]int32{2, 2, 1}, [3]uint32{}},
		{"retain a", func(a, b, x *Occurrence) { a.Retain() }, [3]int32{3, 2, 1}, [3]uint32{}},
		{"drop creators", func(a, b, x *Occurrence) { a.Release(); b.Release() }, [3]int32{2, 1, 1}, [3]uint32{}},
		{"release x cascades", func(a, b, x *Occurrence) { x.Release() }, [3]int32{1, 0, 0}, [3]uint32{0, 1, 1}},
		{"last holder of a", func(a, b, x *Occurrence) { a.Release() }, [3]int32{0, 0, 0}, [3]uint32{1, 1, 1}},
		{"double put of a", func(a, b, x *Occurrence) { a.Release() }, [3]int32{0, 0, 0}, [3]uint32{1, 1, 1}},
	}
	r := testRoster()
	p := NewPool(r)
	a := p.GetPrimitive("A", Explicit, stampAt("a", 3, 30), r.MustSite("a"), Params{"n": 1})
	b := p.GetPrimitive("B", Explicit, stampAt("b", 4, 40), r.MustSite("b"), nil)
	x := p.GetComposite("X", "b", []*Occurrence{a, b})
	occs := [3]*Occurrence{a, b, x}
	var gen0 [3]uint32
	for i, o := range occs {
		gen0[i] = o.Gen()
	}
	for _, st := range steps {
		st.do(a, b, x)
		for i, o := range occs {
			if o.Refs() != st.refs[i] || o.Gen()-gen0[i] != st.gens[i] {
				t.Fatalf("after %q: occurrence %d has refs=%d gen=+%d, want refs=%d gen=+%d",
					st.name, i, o.Refs(), o.Gen()-gen0[i], st.refs[i], st.gens[i])
			}
		}
	}
	if x.Constituents == nil || len(x.Constituents) != 0 || a.Params != nil || a.Stamp != nil {
		t.Fatalf("recycled occurrences not cleared: x=%+v a=%+v", x, a)
	}
	if got := p.Stats(); got.Gets != 3 || got.Puts != 3 || got.DoublePuts != 1 {
		t.Fatalf("counters %+v, want 3 gets, 3 puts, 1 double put", got)
	}

	p.Strict = true
	o := p.GetPrimitive("C", Explicit, stampAt("c", 5, 50), r.MustSite("c"), nil)
	o.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("Strict pool did not panic on the extra Release")
		}
	}()
	o.Release()
}

// TestOwnedPoolRetainsOnlyTheFrontArray pins the bound on the pool's
// retained heap: of 10 000 released occurrences, localFree sit in the front
// array and the rest go to the sync.Pool, which two collections empty.  (An unbounded
// free list would keep all 10 000 reachable.)
func TestOwnedPoolRetainsOnlyTheFrontArray(t *testing.T) {
	const n = 10000
	r := testRoster()
	p := NewPool(r)
	var collected atomic.Int64
	occs := make([]*Occurrence, n)
	for i := range occs {
		occs[i] = p.GetPrimitive("A", Explicit, stampAt("a", 1, int64(i)), r.MustSite("a"), nil)
		runtime.SetFinalizer(occs[i], func(*Occurrence) { collected.Add(1) })
	}
	for i, o := range occs {
		o.Release()
		occs[i] = nil
	}
	// Two collections move a sync.Pool's contents to its victim cache and
	// then drop them; a third runs the finalizers the second one queued.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	for wait := 0; collected.Load() < n-localFree && wait < 200; wait++ {
		runtime.Gosched()
		runtime.GC()
	}
	if got := collected.Load(); got != n-localFree {
		t.Fatalf("%d of %d released occurrences collected, want all but the front array's %d", got, n, localFree)
	}
	if p.nfree != localFree {
		t.Fatalf("front array holds %d, want %d", p.nfree, localFree)
	}
	runtime.KeepAlive(p)
}

// poolCycles returns, over a fresh pool, the steady-state lifecycles
// BenchmarkPoolCycle times and TestPoolCycleAllocs gates: a primitive's
// get and release, and a two-constituent composite's (three gets, the
// fold, and the cascade that frees all three).
func poolCycles() (primitive, composite func(i int64)) {
	r := testRoster()
	p := NewPool(r)
	sa, sb := r.MustSite("a"), r.MustSite("b")
	var cs [2]*Occurrence
	primitive = func(i int64) {
		p.GetPrimitive("A", Explicit, stampAt("a", 3, i), sa, nil).Release()
	}
	composite = func(i int64) {
		cs[0] = p.GetPrimitive("A", Explicit, stampAt("a", 3, i), sa, nil)
		cs[1] = p.GetPrimitive("B", Explicit, stampAt("b", 3, i), sb, nil)
		x := p.GetComposite("X", "b", cs[:])
		cs[0].Release()
		cs[1].Release()
		x.Release()
	}
	return primitive, composite
}

// Once warm, a pool cycle allocates nothing: every occurrence, stamp and
// constituent slice is recycled through the pool's front array, which
// the race detector leaves alone.
func TestPoolCycleAllocs(t *testing.T) {
	primitive, composite := poolCycles()
	for name, cycle := range map[string]func(int64){"primitive": primitive, "composite": composite} {
		i := int64(0)
		if n := testing.AllocsPerRun(100, func() { i++; cycle(i) }); n != 0 {
			t.Errorf("%s cycle: %v allocs, want 0", name, n)
		}
	}
}

func BenchmarkPoolCycle(b *testing.B) {
	b.Run("primitive", func(b *testing.B) {
		primitive, _ := poolCycles()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			primitive(int64(i))
		}
	})
	b.Run("composite", func(b *testing.B) {
		_, composite := poolCycles()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			composite(int64(i))
		}
	})
}
