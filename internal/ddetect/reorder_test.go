package ddetect

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wire"
)

// frontierArrival is one frontier-only bus message as the reorderer sees
// it.
type frontierArrival struct {
	from   core.Site
	seq    uint64
	global int64
}

// snapshot renders everything a frontier-only arrival can change.
func (r *reorderer) snapshot() string {
	s := fmt.Sprintf("buffered=%d ready=%d minDirty=%v stale=%v", r.buffered, len(r.ready), r.minDirty, r.stale)
	for i, st := range r.sources {
		s += fmt.Sprintf(" [%d next=%d frontier=%d pending=%d]", i, st.nextSeq, st.frontier, len(st.pending))
	}
	return s
}

// twinReorderers feeds every arrival to two reorderers built the same way
// — one through acceptFrontier, one as the heartbeat envelope (alone via
// accept, or as a one-envelope run via acceptBatch) — and fails on the
// first difference in verdict, error text or state.
type twinReorderers struct {
	t             *testing.T
	lone, general *reorderer
	batch         bool
}

func (tw *twinReorderers) arrive(a frontierArrival) error {
	tw.t.Helper()
	at := a.global * 100
	got := tw.lone.acceptFrontier(a.from, a.seq, a.global, at)
	env := wire.Envelope{Kind: wire.KindHeartbeat, Global: a.global, RaisedAt: at}
	var want error
	if tw.batch {
		want = tw.general.acceptBatch(a.from, a.seq, []wire.Envelope{env})
	} else {
		want = tw.general.accept(a.from, a.seq, env)
	}
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		tw.t.Fatalf("arrival %+v: acceptFrontier says %v, the envelope path %v", a, got, want)
	}
	if g, w := tw.lone.snapshot(), tw.general.snapshot(); g != w {
		tw.t.Fatalf("arrival %+v: state diverged\n frontier %s\n envelope %s", a, g, w)
	}
	return got
}

// watermark recomputes the minimum frontier on both twins, which must
// agree.
func (tw *twinReorderers) watermark() int64 {
	tw.t.Helper()
	got, want := tw.lone.minFrontier(), tw.general.minFrontier()
	if got != want {
		tw.t.Fatalf("watermark %d after acceptFrontier, %d on the envelope path", got, want)
	}
	return got
}

func forBothEnvelopePaths(t *testing.T, build func() *reorderer, run func(t *testing.T, tw *twinReorderers)) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			run(t, &twinReorderers{t: t, lone: build(), general: build(), batch: batch})
		})
	}
}

func abRoster() (*core.Roster, core.Site, core.Site) {
	roster := core.NewRoster([]core.SiteID{"a", "b"})
	return roster, roster.MustSite("a"), roster.MustSite("b")
}

// Seq 2 before seq 1 buffers; seq 1 then drains both in order, and the
// watermark is recomputed once, to the newer frontier.
func TestFrontierOutOfOrderBuffersThenDrains(t *testing.T) {
	roster, a, b := abRoster()
	forBothEnvelopePaths(t, func() *reorderer { return newReorderer(roster) }, func(t *testing.T, tw *twinReorderers) {
		r := tw.lone
		if err := tw.arrive(frontierArrival{b, 1, 50}); err != nil {
			t.Fatal(err)
		}
		if err := tw.arrive(frontierArrival{a, 2, 7}); err != nil {
			t.Fatalf("out-of-order frontier: %v", err)
		}
		if r.buffered != 1 || r.pendingEvents() != 1 || r.sources[a].frontier != math.MinInt64 {
			t.Fatalf("seq 2 alone: %s", r.snapshot())
		}
		if got := tw.watermark(); got != math.MinInt64 {
			t.Fatalf("watermark moved to %d on a buffered frontier", got)
		}
		if err := tw.arrive(frontierArrival{a, 1, 5}); err != nil {
			t.Fatal(err)
		}
		if r.buffered != 0 || r.sources[a].nextSeq != 3 || r.sources[a].frontier != 7 || len(r.sources[a].pending) != 0 {
			t.Fatalf("after the gap filled: %s", r.snapshot())
		}
		if !r.minDirty {
			t.Fatal("the drained frontiers did not mark the watermark for recomputation")
		}
		if got := tw.watermark(); got != 7 {
			t.Fatalf("watermark = %d, want 7", got)
		}
		if r.minDirty {
			t.Fatal("watermark still dirty after its one recomputation")
		}
	})
}

// A consumed seq, an already-buffered seq and an unknown source are errors,
// the same errors accept and acceptBatch give, and leave no trace.
func TestFrontierRejectsAnomalies(t *testing.T) {
	roster, a, _ := abRoster()
	forBothEnvelopePaths(t, func() *reorderer { return newReorderer(roster) }, func(t *testing.T, tw *twinReorderers) {
		for _, from := range []core.Site{99, core.NoSite} {
			if err := tw.arrive(frontierArrival{from, 1, 1}); err == nil {
				t.Errorf("source %d accepted", from)
			}
		}
		if err := tw.arrive(frontierArrival{a, 1, 1}); err != nil {
			t.Fatal(err)
		}
		if err := tw.arrive(frontierArrival{a, 1, 2}); err == nil {
			t.Error("consumed seq accepted")
		}
		if err := tw.arrive(frontierArrival{a, 3, 3}); err != nil {
			t.Fatalf("gap buffering failed: %v", err)
		}
		if err := tw.arrive(frontierArrival{a, 3, 3}); err == nil {
			t.Error("already-buffered seq accepted")
		}
		if tw.lone.buffered != 1 {
			t.Errorf("buffered = %d after the rejections, want 1", tw.lone.buffered)
		}
	})
}

// A frontier not above the source's current one is consumed — its seq is
// spent — but touches neither the watermark cache nor the stale flag.
func TestFrontierNotAboveCurrentChangesNothing(t *testing.T) {
	roster, a, b := abRoster()
	forBothEnvelopePaths(t, func() *reorderer { return newReorderer(roster) }, func(t *testing.T, tw *twinReorderers) {
		r := tw.lone
		for _, arr := range []frontierArrival{{a, 1, 10}, {b, 1, 12}} {
			if err := tw.arrive(arr); err != nil {
				t.Fatal(err)
			}
		}
		tw.watermark() // clears minDirty
		tw.lone.stale, tw.general.stale = false, false
		for seq, g := range []int64{10, 9, math.MinInt64} {
			if err := tw.arrive(frontierArrival{a, uint64(seq + 2), g}); err != nil {
				t.Fatal(err)
			}
			if r.minDirty || r.stale || r.sources[a].frontier != 10 {
				t.Fatalf("frontier %d after 10: %s", g, r.snapshot())
			}
		}
		if r.sources[a].nextSeq != 5 {
			t.Fatalf("nextSeq = %d, want 5", r.sources[a].nextSeq)
		}
		if err := tw.arrive(frontierArrival{a, 5, 11}); err != nil {
			t.Fatal(err)
		}
		if !r.minDirty || !r.stale {
			t.Fatalf("a frontier above the current one must mark both: %s", r.snapshot())
		}
	})
}

// pendingEvents counts buffered frontier messages with held events, and
// an excluded source's frontiers are consumed without gating anything.
func TestFrontierPendingAccountingAndExclusion(t *testing.T) {
	roster, a, b := abRoster()
	forBothEnvelopePaths(t, func() *reorderer { return newReorderer(roster) }, func(t *testing.T, tw *twinReorderers) {
		r := tw.lone
		occ := event.NewPrimitive("A", event.Explicit, core.DeriveStamp("a", 100, 10), nil)
		for _, re := range []*reorderer{tw.lone, tw.general} {
			if err := re.accept(a, 1, wire.Envelope{Kind: wire.KindEvent, Occ: occ}); err != nil {
				t.Fatal(err)
			}
		}
		for i, arr := range []frontierArrival{{a, 4, 14}, {a, 3, 13}, {b, 2, 20}} {
			if err := tw.arrive(arr); err != nil {
				t.Fatal(err)
			}
			if got, want := r.pendingEvents(), 1+i+1; got != want {
				t.Fatalf("pendingEvents = %d after %d buffered frontiers, want %d", got, i+1, want)
			}
		}
		// b never delivers seq 1; excluding it stops its silence from
		// gating, and a's filled gap releases the event.
		for _, re := range []*reorderer{tw.lone, tw.general} {
			re.exclude(b)
		}
		if err := tw.arrive(frontierArrival{a, 2, 12}); err != nil {
			t.Fatal(err)
		}
		if r.pendingEvents() != 2 { // the held event and b's buffered frontier
			t.Fatalf("pendingEvents = %d, want 2: %s", r.pendingEvents(), r.snapshot())
		}
		if got := tw.watermark(); got != 14 {
			t.Fatalf("watermark = %d with b excluded, want a's 14", got)
		}
		for _, re := range []*reorderer{tw.lone, tw.general} {
			if n := len(re.releaseInto(ReleaseTotalOrder, nil)); n != 1 {
				t.Fatalf("released %d, want 1", n)
			}
		}
		// The excluded source's stream still restores its order.
		if err := tw.arrive(frontierArrival{b, 1, 19}); err != nil {
			t.Fatal(err)
		}
		if r.buffered != 0 || r.sources[b].frontier != 20 || tw.watermark() != 14 {
			t.Fatalf("after the excluded source's gap filled: %s", r.snapshot())
		}
	})
}

// A self-only reorderer hears no frontier but its own.
func TestFrontierSelfOnlyRejectsForeignSender(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b", "c"})
	self := roster.MustSite("b")
	forBothEnvelopePaths(t, func() *reorderer { return newSelfReorderer(roster, self) }, func(t *testing.T, tw *twinReorderers) {
		if err := tw.arrive(frontierArrival{roster.MustSite("a"), 1, 1}); err == nil {
			t.Error("foreign frontier accepted by a self-only reorderer")
		}
		if err := tw.arrive(frontierArrival{self, 1, 4}); err != nil {
			t.Fatal(err)
		}
		if got := tw.watermark(); got != 4 {
			t.Fatalf("watermark = %d, want the site's own 4", got)
		}
	})
}
