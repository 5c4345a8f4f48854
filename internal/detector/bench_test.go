package detector

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/workload"
)

// spoiledNot builds Chronicle NOT(C)[A, D] holding `state` retained
// initiators, every one of them spoiled by the C that followed it
// (spoiled initiators are retained: see introspect.go), and returns a
// publish function raising one pooled primitive of the given type.  No
// terminator fires or consumes, so every D meets the same state.
func spoiledNot(tb testing.TB, state int) (d *Detector, fired *int, publish func(typ string)) {
	d, pool, roster := pooledDetector(tb, []core.SiteID{"s1"}, []string{"A", "C", "D"}, "NOT(C)[A, D]", Chronicle)
	fired = new(int)
	d.Subscribe("X", func(*event.Occurrence) { *fired++ })
	local := int64(0)
	publish = func(typ string) {
		local++
		o := pool.GetPrimitive(typ, event.Explicit, core.DeriveStamp("s1", local, tRatio), roster.MustSite("s1"), nil)
		d.Publish(o)
		o.Release()
	}
	for i := 0; i < state; i++ {
		publish("A")
		publish("C")
	}
	return d, fired, publish
}

// A terminator against spoiled NOT state allocates nothing: the
// first-follower index answers each initiator from the node's own arrays.
func TestNotSpoiledStateAllocs(t *testing.T) {
	for _, state := range []int{256, 4096} {
		d, fired, publish := spoiledNot(t, state)
		if n := testing.AllocsPerRun(100, func() { publish("D") }); n != 0 {
			t.Errorf("state=%d: %v allocs per terminator, want 0", state, n)
		}
		if *fired != 0 || d.StateSize() != 2*state {
			t.Fatalf("state=%d: %d detections, state %d: want none and %d", state, *fired, d.StateSize(), 2*state)
		}
	}
}

// TestOperatorAllocs pins what one publish cycle costs each operator node
// in each parameter context: nothing.  Every cycle publishes pooled
// primitives 10 global ticks apart at one site, so each cycle meets the
// state the previous one left; emissions build their constituent lists
// in node scratch and windows live by value, so a new allocation in a
// node's child handler fails its cell.  Unrestricted SEQ, AND, NOT and
// ANY are left out: they pair every terminator with every retained
// initiator, so their state (265–530 entries after warm-up) grows with
// each cycle and so does the buffer growth it costs.  P, P* and PLUS are
// left out because no workload defines them.
func TestOperatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	bounded := []Context{Recent, Chronicle, Continuous, Cumulative}
	for _, tc := range []struct {
		expr     string
		cycle    []string
		contexts []Context
	}{
		{"A ; B", []string{"A", "B"}, bounded},
		{"A AND B", []string{"A", "B"}, bounded},
		{"NOT(C)[A, D]", []string{"A", "D"}, bounded},
		{"A OR B", []string{"A"}, Contexts()},
		{"ANY(2, A, B, C)", []string{"A", "B"}, bounded},
		{"A(A, B, C)", []string{"A", "B", "C"}, Contexts()},
		{"A*(A, B, C)", []string{"A", "B", "C"}, Contexts()},
	} {
		for _, ctx := range tc.contexts {
			d, pool, roster := pooledDetector(t, []core.SiteID{"s1"}, []string{"A", "B", "C", "D"}, tc.expr, ctx)
			fired := 0
			d.Subscribe("X", func(*event.Occurrence) { fired++ })
			s1, local := roster.MustSite("s1"), int64(0)
			cycle := func() {
				for _, typ := range tc.cycle {
					local += 10 * tRatio
					o := pool.GetPrimitive(typ, event.Explicit, core.DeriveStamp("s1", local, tRatio), s1, nil)
					d.Publish(o)
					o.Release()
				}
			}
			const warm, runs = 64, 200
			for i := 0; i < warm; i++ {
				cycle()
			}
			before := fired
			if n := testing.AllocsPerRun(runs, cycle); n != 0 {
				t.Errorf("%s %v: %v allocs per cycle, want 0", tc.expr, ctx, n)
			}
			// Recent keeps the last A and the last B, so each arrival
			// pairs with the retained partner: two detections a cycle.
			want := 1
			if ctx == Recent && (tc.expr == "A AND B" || tc.expr == "ANY(2, A, B, C)") {
				want = 2
			}
			// AllocsPerRun makes one warm-up call of its own.
			if got, cycles := fired-before, runs+1; got != want*cycles {
				t.Errorf("%s %v: %d detections in %d cycles, want %d a cycle", tc.expr, ctx, got, cycles, want)
			}
		}
	}
}

// BenchmarkNotSpoiledState measures what one terminator of Chronicle
// NOT(C)[A, D] costs against `state` retained spoiled initiators.  The
// first-follower index answers each initiator with one comparison, so
// ns/terminator is linear in state (EXPERIMENTS.md records the measured
// 4096 ÷ 256 ratio).
func BenchmarkNotSpoiledState(b *testing.B) {
	for _, state := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("state=%d", state), func(b *testing.B) {
			d, fired, publish := spoiledNot(b, state)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publish("D")
			}
			b.StopTimer()
			if *fired != 0 || d.StateSize() != 2*state {
				b.Fatalf("%d detections, state %d: want none and %d", *fired, d.StateSize(), 2*state)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/terminator")
		})
	}
}

// manyDefinitions compiles nDefs generated definitions at the given
// tenancy overlap into one pooled detector, warms it to steady state and
// returns a publish function for the i-th event after the warm-up, with
// the time defining the whole set took.  The alphabet scales with the
// definition count, so the number of definitions matching one event stays
// roughly constant.
func manyDefinitions(tb testing.TB, nDefs int, overlap float64) (d *Detector, publish func(i int), compile time.Duration) {
	p := nDefs / 8
	if p < 8 {
		p = 8
	}
	types := workload.TypeNames(p)
	reg := event.NewRegistry()
	for _, t := range types {
		reg.MustDeclare(t, event.Explicit)
	}
	defs := workload.GenDefs(workload.DefsConfig{
		Count: nDefs, Types: types, Overlap: overlap, Seed: 99,
	})
	d = New("s1", reg, nil)
	// Pool composites the way a sealed production system does (§2h):
	// detections at 90% overlap come in phase bursts (one shared
	// subexpression completing fires every embedder), and unpooled
	// composite garbage would swamp the dispatch-cost signal.
	d.UsePool(event.NewPool(core.NewRoster([]core.SiteID{"s1"})))
	start := time.Now()
	for _, def := range defs {
		if _, err := d.DefineString(def.Name, def.Expr, Chronicle); err != nil {
			tb.Fatal(err)
		}
	}
	compile = time.Since(start)
	// Pre-resolve type IDs the way the ingest stage does, so publish runs
	// the dense fast path an online system runs.
	ids := make([]event.TypeID, len(types))
	for i, t := range types {
		ids[i] = reg.TypeID(t)
	}
	publishAt := func(i int) {
		occ := event.NewPrimitive(types[i%p], event.Explicit,
			core.DeriveStamp("s1", int64(i)*25, 10), nil)
		occ.TypeID = ids[i%p]
		d.Publish(occ)
	}
	// Warm to steady state — node buffers, the delivery heap and the
	// finish queue grow to their working capacity over the first alphabet
	// cycles.  Each node sees only every p-th event, so it takes several
	// full cycles for buffer capacities to stop doubling.
	warm := 10 * p
	if warm < 512 {
		warm = 512
	}
	for i := 0; i < warm; i++ {
		publishAt(i)
	}
	return d, func(i int) { publishAt(warm + i) }, compile
}

// One publish against 10 000 generated definitions at 90% overlap
// allocates at most the primitive the benchmark raises and its stamp set:
// dispatch and the shared operator nodes allocate nothing per event.
func TestManyDefinitionsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	_, publish, _ := manyDefinitions(t, 10000, 0.9)
	i := 0
	n := testing.AllocsPerRun(1000, func() { publish(i); i++ })
	t.Logf("%v allocs per publish", n)
	if n > 2 {
		t.Errorf("%v allocs per publish, want ≤ 2", n)
	}
}

// BenchmarkManyDefinitions pins the hash-consed compiler's claim in the
// 10k-definition regime: per-event dispatch cost tracks the number of
// definitions that *match* the event's type — held roughly constant here
// by scaling the alphabet with the definition count — not the total
// definition count, so defs=10000 ns/op stays within a small factor of
// defs=100.  The overlap knob sweeps tenancy overlap: at 90% most bodies
// embed one of 16 shared core subexpressions, which the interner
// collapses to single operator subgraphs (visible in the nodes metric).
// compile-ms records the one-time cost of defining the whole set; the
// 10k case must stay in the hundreds of milliseconds.
func BenchmarkManyDefinitions(b *testing.B) {
	for _, nDefs := range []int{100, 1000, 10000} {
		for _, overlap := range []float64{0, 0.5, 0.9} {
			nDefs, overlap := nDefs, overlap
			b.Run(fmt.Sprintf("defs=%d/overlap=%.0f%%", nDefs, overlap*100), func(b *testing.B) {
				d, publish, compile := manyDefinitions(b, nDefs, overlap)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					publish(i)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatch/sec")
				b.ReportMetric(float64(compile.Nanoseconds())/1e6, "compile-ms")
				b.ReportMetric(float64(d.NodeCount()), "nodes")
			})
		}
	}
}
