package ddetect

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/pipeline"
)

// TestSealPicksPoolFormFromWorkers checks which occurrence pool seal
// builds, by the one property of the forms visible from outside
// internal/event: after a settled run every occurrence is back in the
// pool, and two garbage collections empty a sync.Pool but not the
// owner-local front array.  So the next raise is served from recycled
// storage at Workers 0 and 1, and by a fresh allocation — a miss — at
// Workers 4, where detect workers share the pool and it must be the
// concurrent form.
func TestSealPicksPoolFormFromWorkers(t *testing.T) {
	for _, tc := range []struct {
		workers  int
		wantMiss bool
	}{{0, false}, {1, false}, {4, true}} {
		sys := MustNewSystem(Config{Pipeline: pipeline.Config{Workers: tc.workers}})
		hub := sys.MustAddSite("hub", 0, 0)
		sys.MustAddSite("edge", 20, 0)
		for _, typ := range []string{"A", "B"} {
			if err := sys.Declare(typ, event.Explicit); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			hub.MustRaise("A", event.Explicit, nil)
			sys.Step(200)
			hub.MustRaise("B", event.Explicit, nil)
			sys.Step(200)
		}
		if err := sys.Settle(100); err != nil {
			t.Fatal(err)
		}
		if ps := sys.PoolStats(); ps.Puts != ps.Gets {
			t.Fatalf("workers=%d: %d gets but %d puts after settling", tc.workers, ps.Gets, ps.Puts)
		}
		runtime.GC()
		runtime.GC()
		before := sys.PoolStats().Misses
		hub.MustRaise("A", event.Explicit, nil)
		if miss := sys.PoolStats().Misses > before; miss != tc.wantMiss {
			t.Fatalf("workers=%d: raise after two GCs missed=%v, want %v", tc.workers, miss, tc.wantMiss)
		}
	}
}

// TestRaiseRoutesTypesDeclaredAfterSeal pins the raise-routing table's
// edge: names are resolved through a table the crank owns, which must not
// remember that a name was unknown.
func TestRaiseRoutesTypesDeclaredAfterSeal(t *testing.T) {
	sys, _, edge := newTwoSiteSystem(t, network.Config{})
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	edge.MustRaise("A", event.Explicit, nil) // seals
	for i := 0; i < 2; i++ {
		if _, err := edge.Raise("Late", event.Explicit, nil); !errors.Is(err, event.ErrUnknownType) {
			t.Fatalf("raise of an undeclared type: %v, want ErrUnknownType", err)
		}
	}
	if err := sys.Declare("Late", event.Explicit); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		o, err := edge.Raise("Late", event.Explicit, nil)
		if err != nil {
			t.Fatalf("raise of a type declared after seal: %v", err)
		}
		if o.TypeID != sys.Registry().TypeID("Late") {
			t.Fatalf("TypeID %d, registry says %d", o.TypeID, sys.Registry().TypeID("Late"))
		}
		if st := sys.Stats(); st.Unconsumed != uint64(i) || st.Raised != uint64(i)+1 {
			t.Fatalf("after %d late raises: Unconsumed=%d Raised=%d", i, st.Unconsumed, st.Raised)
		}
	}
}

// TestSubscribeAfterSealStillFires: the publish stage reads handlers from
// the per-definition record it resolved at seal, and a later Subscribe
// must land on that same record.
func TestSubscribeAfterSealStillFires(t *testing.T) {
	sys, hub, _ := newTwoSiteSystem(t, network.Config{})
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	early := 0
	if err := sys.Subscribe("AB", func(*event.Occurrence) { early++ }); err != nil {
		t.Fatal(err)
	}
	hub.MustRaise("A", event.Explicit, nil) // seals
	late := 0
	if err := sys.Subscribe("AB", func(*event.Occurrence) { late++ }); err != nil {
		t.Fatal(err)
	}
	sys.Step(200)
	hub.MustRaise("B", event.Explicit, nil)
	if err := sys.Settle(100); err != nil {
		t.Fatal(err)
	}
	if early != 1 || late != 1 {
		t.Fatalf("handlers saw early=%d late=%d detections, want 1 and 1", early, late)
	}
	if st := sys.Stats(); len(st.Definitions) != 1 || st.Definitions[0].Detections != 1 {
		t.Fatalf("definition stats %+v", st.Definitions)
	}
}
