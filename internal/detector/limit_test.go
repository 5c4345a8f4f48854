package detector

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

func TestBufferLimitBoundsUnrestricted(t *testing.T) {
	d, _ := newTestDetector(t)
	d.SetBufferLimit(8)
	d.MustDefine("X", "A ; B", Unrestricted)
	for i := int64(0); i < 500; i++ {
		d.Publish(occAt("s1", i*50, "A"))
	}
	if d.StateSize() > 8 {
		t.Fatalf("StateSize = %d exceeds limit 8", d.StateSize())
	}
	if d.DroppedOccurrences() != 500-8 {
		t.Fatalf("dropped = %d, want 492", d.DroppedOccurrences())
	}
}

func TestBufferLimitEvictsOldestFirst(t *testing.T) {
	d, _ := newTestDetector(t)
	c := &collector{}
	d.SetBufferLimit(2)
	d.MustDefine("X", "A ; B", Continuous)
	d.Subscribe("X", c.handler)
	d.Publish(occAt("s1", 10, "A"))
	d.Publish(occAt("s1", 20, "A"))
	d.Publish(occAt("s1", 30, "A")) // evicts A@10
	d.Publish(occAt("s1", 40, "B"))
	c.assertSigs(t, "X[A@20 B@40]", "X[A@30 B@40]")
}

func TestBufferLimitCountsNotBuffers(t *testing.T) {
	d, _ := newTestDetector(t)
	d.SetBufferLimit(4)
	d.MustDefine("X", "NOT(B)[A, C]", Chronicle)
	// Spoiled initiators accumulate; the limit must bound them.
	for i := int64(0); i < 50; i++ {
		d.Publish(occAt("s1", i*100, "A"))
		d.Publish(occAt("s1", i*100+50, "B"))
	}
	if d.StateSize() > 8 { // 4 inits + 4 spoilers
		t.Fatalf("StateSize = %d, want ≤ 8", d.StateSize())
	}
	if d.DroppedOccurrences() == 0 {
		t.Fatalf("expected evictions")
	}
}

func TestBufferLimitDisarmsEvictedPeriodicWindows(t *testing.T) {
	d, ft, c := temporalHarness(t, "P(S, 100, T)", Continuous)
	d.SetBufferLimit(1)
	ft.now = 100
	d.Publish(occAt("s1", 10, "S"))
	ft.now = 150
	d.Publish(occAt("s1", 15, "S")) // evicts the first window
	ft.now = 400
	d.AdvanceTo(400) // only the second window's ticks fire (250, 350)
	for _, o := range c.got {
		if o.Flatten()[0].Stamp[0].Local != 15 {
			t.Fatalf("evicted window still ticking: %v", sig(o))
		}
	}
	if len(c.got) != 2 {
		t.Fatalf("detections = %d, want 2", len(c.got))
	}
}

func TestZeroLimitMeansUnlimited(t *testing.T) {
	d, _ := newTestDetector(t)
	d.SetBufferLimit(0)
	d.MustDefine("X", "A ; B", Unrestricted)
	for i := int64(0); i < 100; i++ {
		d.Publish(occAt("s1", i*50, "A"))
	}
	if d.StateSize() != 100 || d.DroppedOccurrences() != 0 {
		t.Fatalf("unlimited mode dropped: state %d dropped %d", d.StateSize(), d.DroppedOccurrences())
	}
	d.SetBufferLimit(-5) // negative normalizes to unlimited
	d.Publish(occAt("s1", 100_000, "A"))
	if d.DroppedOccurrences() != 0 {
		t.Fatalf("negative limit dropped entries")
	}
}

func TestBufferLimitPreservesDetectionUnderCapacity(t *testing.T) {
	// A workload that never exceeds the cap detects identically.
	run := func(limit int) []string {
		d, _ := newTestDetector(t)
		d.SetBufferLimit(limit)
		c := &collector{}
		d.MustDefine("X", "A ; B", Chronicle)
		d.Subscribe("X", c.handler)
		for i := int64(0); i < 40; i++ {
			d.Publish(occAt("s1", i*50, []string{"A", "B"}[i%2]))
		}
		return c.sigs()
	}
	capped, uncapped := run(4), run(0)
	if len(capped) != len(uncapped) {
		t.Fatalf("capacity cap changed under-capacity behaviour: %d vs %d", len(capped), len(uncapped))
	}
	for i := range capped {
		if capped[i] != uncapped[i] {
			t.Fatalf("detection %d differs: %s vs %s", i, capped[i], uncapped[i])
		}
	}
}

// TestBufferLimitNotIndexSurvivesEviction: notNode.trim evicts initiators
// and E2s independently, so an initiator can lose the E2 its first-follower
// index names.  The index must then name the earliest surviving follower —
// never a slot that moved, an evicted occurrence, or nothing while a
// spoiler survives — which runNot checks after every publication, on a
// Strict pool, against the pair scan over the surviving buffers.
func TestBufferLimitNotIndexSurvivesEviction(t *testing.T) {
	pinned := map[string][]notEv{
		// Five followers of one initiator under a limit of three: its first
		// follower is evicted twice, and the survivors still spoil it.
		"survivors spoil": {{"A", 0, 10}, {"C", 0, 20}, {"C", 0, 30}, {"C", 0, 40}, {"C", 0, 50}, {"C", 0, 60}, {"D", 0, 70}},
		// The one spoiler inside the interval is evicted by three followers
		// concurrent with the terminator: the limit's recall cost, the same
		// as the pair scan pays.
		"evicted spoiler": {{"A", 0, 10}, {"C", 0, 20}, {"C", 1, 205}, {"C", 1, 206}, {"C", 1, 207}, {"D", 0, 210}},
	}
	for name, order := range pinned {
		got := runNot(t, "NOT(C)[A, D]", Chronicle, 3, false, order)
		if d := got.diff(runNot(t, "NOT(C)[A, D]", Chronicle, 3, true, order)); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		if want := map[string]int{"survivors spoil": 0, "evicted spoiler": 1}[name]; len(got.dets) != want || got.dropped == 0 {
			t.Errorf("%s: %d detections (want %d), %d evictions (want some)", name, len(got.dets), want, got.dropped)
		}
	}
	dropped := uint64(0)
	for trial := 0; trial < 30; trial++ {
		r := rand.New(rand.NewSource(int64(9000 + trial)))
		order := linearExtension(r, genNotHistory(r, []string{"A", "A", "C", "C", "C", "D"}, 3, 40+r.Intn(30)))
		for _, ctx := range allContexts {
			limit := 2 + trial%3
			got := runNot(t, "NOT(C)[A, D]", ctx, limit, false, order)
			if d := got.diff(runNot(t, "NOT(C)[A, D]", ctx, limit, true, order)); d != "" {
				t.Fatalf("trial %d under %v, limit %d: %s", trial, ctx, limit, d)
			}
			dropped += got.dropped
		}
	}
	if dropped < 1000 {
		t.Fatalf("only %d evictions: the property is vacuous", dropped)
	}
}

// TestBufferLimitAperiodicWindows runs A and A* under a buffer limit of
// one to three windows on a Strict pool (a double put panics) and checks
// every emission against a model of the operator over plain slices: the
// windows the limit keeps are the newest, and each keeps exactly the E2s
// it accumulated.  The limit is lifted for every other stretch of 40
// publications, so one trim evicts many windows, some of them holding
// E2 storage reused from windows closed earlier.  The events are published
// in one site's order, so every window precedes every later event.
func TestBufferLimitAperiodicWindows(t *testing.T) {
	sites := []core.SiteID{"s1"}
	for _, cumulative := range []bool{false, true} {
		expression := "A(A, B, C)"
		if cumulative {
			expression = "A*(A, B, C)"
		}
		for _, ctx := range allContexts {
			for limit := 1; limit <= 3; limit++ {
				r := rand.New(rand.NewSource(int64(limit)))
				d, pool, roster := pooledDetector(t, sites, []string{"A", "B", "C"}, expression, ctx)
				pool.Strict = true
				var got []string
				d.Subscribe("X", func(o *event.Occurrence) { got = append(got, sig(o)) })

				type window struct {
					init string
					acc  []string
				}
				var windows []window
				var want []string
				emit := func(parts ...string) { want = append(want, "X["+strings.Join(parts, " ")+"]") }
				dropped := 0
				for i := int64(1); i <= 400; i++ {
					cur := limit
					if i/40%2 == 0 {
						cur = 0
					}
					d.SetBufferLimit(cur)
					typ := []string{"A", "A", "A", "B", "B", "B", "B", "B", "B", "B", "B", "C"}[r.Intn(12)]
					st := core.DeriveStamp("s1", i*10, tRatio)
					o := pool.GetPrimitive(typ, event.Explicit, st, roster.MustSite(st.Site), nil)
					d.Publish(o)
					o.Release()

					name := fmt.Sprintf("%s@%d", typ, i*10)
					switch typ {
					case "A":
						if ctx == Recent {
							windows = windows[:0]
						}
						windows = append(windows, window{init: name})
					case "B":
						for j := range windows {
							if cumulative {
								windows[j].acc = append(windows[j].acc, name)
							} else {
								emit(windows[j].init, name)
							}
							if ctx == Chronicle {
								break
							}
						}
					case "C":
						if !cumulative || len(windows) == 0 {
							windows = windows[:0]
							break
						}
						switch ctx {
						case Chronicle:
							emit(append(append([]string{windows[0].init}, windows[0].acc...), name)...)
						case Cumulative:
							var parts, e2s []string
							for _, w := range windows {
								parts = append(parts, w.init)
								for _, e2 := range w.acc {
									if !slices.Contains(e2s, e2) {
										e2s = append(e2s, e2)
									}
								}
							}
							emit(append(append(parts, e2s...), name)...)
						default:
							for _, w := range windows {
								emit(append(append([]string{w.init}, w.acc...), name)...)
							}
						}
						windows = windows[:0]
					}
					if cur > 0 && len(windows) > cur {
						dropped += len(windows) - cur
						windows = append(windows[:0], windows[len(windows)-cur:]...)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s under %v, limit %d:\n got %v\nwant %v", expression, ctx, limit, got, want)
				}
				if uint64(dropped) != d.DroppedOccurrences() || (dropped == 0 && ctx != Recent) { // Recent holds one window
					t.Fatalf("%s under %v, limit %d: dropped %d, model %d (want some outside Recent)", expression, ctx, limit, d.DroppedOccurrences(), dropped)
				}
				if ps := pool.Stats(); ps.DoublePuts != 0 {
					t.Fatalf("%s under %v, limit %d: %d double puts", expression, ctx, limit, ps.DoublePuts)
				}
			}
		}
	}
}
