package ddetect

import (
	"errors"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
)

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
