package ddetect

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/workload"
)

// runScenario executes a fixed adversarial workload and returns the
// detection signatures in order.
func runSerializeScenario(t *testing.T, serialize bool) []string {
	t.Helper()
	sys := MustNewSystem(Config{
		Net: network.Config{BaseLatency: 25, Jitter: 70, DropRate: 0.05,
			RetransmitDelay: 140, Seed: 77},
		Serialize: serialize,
	})
	siteIDs := []core.SiteID{"s0", "s1", "s2"}
	for i, id := range siteIDs {
		sys.MustAddSite(id, int64(i*11)-10, 0)
	}
	for _, typ := range []string{"A", "B", "C"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("s0", "Seq", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("s0", "Guard", "NOT(C)[A, B]", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range []string{"Seq", "Guard"} {
		if err := sys.Subscribe(name, func(o *event.Occurrence) {
			sig := o.Type
			for _, c := range o.Flatten() {
				sig += fmt.Sprintf("|%s@%s:%d", c.Type, c.Site, c.Stamp[0].Local)
			}
			got = append(got, sig)
		}); err != nil {
			t.Fatal(err)
		}
	}
	trace := workload.GenStream(workload.StreamConfig{
		Sites: siteIDs, Types: []string{"A", "B", "C"}, MeanGap: 90, Count: 300, Seed: 5,
	})
	for _, item := range trace.Items {
		sys.Run(item.At, 50)
		sys.Site(item.Site).MustRaise(item.Type, event.Explicit, item.Params)
	}
	if err := sys.Settle(50_000); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSerializeTransparent proves the wire codec is semantically invisible:
// the exact same detections, in the same order, with and without
// serialization of every bus message.
func TestSerializeTransparent(t *testing.T) {
	plain := runSerializeScenario(t, false)
	coded := runSerializeScenario(t, true)
	if len(plain) == 0 {
		t.Fatalf("degenerate scenario: no detections")
	}
	if len(plain) != len(coded) {
		t.Fatalf("detection counts differ: %d vs %d", len(plain), len(coded))
	}
	for i := range plain {
		if plain[i] != coded[i] {
			t.Fatalf("detection %d differs:\n plain: %s\n coded: %s", i, plain[i], coded[i])
		}
	}
}

// TestSerializeRejectsUnencodableParams: raising an event whose parameters
// cannot cross the wire must fail loudly at the raise, not corrupt the
// stream.
func TestSerializeRejectsUnencodableParams(t *testing.T) {
	sys := MustNewSystem(Config{Serialize: true})
	sys.MustAddSite("hub", 0, 0)
	edge := sys.MustAddSite("edge", 0, 0)
	if err := sys.Declare("A", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if err := sys.Declare("B", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("hub", "X", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("unencodable params must panic at the raise")
		}
	}()
	edge.MustRaise("A", event.Explicit, event.Params{"bad": make(chan int)})
}

// TestUnbatchedSerializeCountsPayloadBytes: the differential transport
// (DisableBatching) puts one frame per envelope on the wire, and those
// frames are the members of the batched run's frames.  Its byte total is
// therefore the batched total less the batch framing — a tag and a count
// per message and a length prefix per member, one byte each at these
// sizes — and the per-link rows account for all of it.
func TestUnbatchedSerializeCountsPayloadBytes(t *testing.T) {
	run := func(unbatched bool) (network.Stats, []network.LinkStat) {
		sys := MustNewSystem(Config{Serialize: true, DisableBatching: unbatched})
		edge := sys.MustAddSite("edge", 0, 0)
		sys.MustAddSite("hub", 0, 0)
		for _, typ := range []string{"A", "B"} {
			if err := sys.Declare(typ, event.Explicit); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.DefineAt("hub", "X", "A ; B", detector.Chronicle); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			sys.Step(100)
			edge.MustRaise([]string{"A", "B"}[i%2], event.Explicit, nil)
		}
		if err := sys.Settle(1000); err != nil {
			t.Fatal(err)
		}
		return sys.Stats().Net, sys.bus.LinkStats()
	}
	batched, _ := run(false)
	single, links := run(true)
	if single.Sent != single.Envelopes || single.Envelopes != batched.Envelopes {
		t.Fatalf("unbatched %+v does not carry the batched run's envelopes %+v", single, batched)
	}
	framing := 2*batched.Sent + batched.Envelopes
	if single.PayloadBytes == 0 || single.PayloadBytes != batched.PayloadBytes-framing {
		t.Fatalf("unbatched payload bytes = %d, want the %d single-frame bytes of the batched run (%d less %d framing)",
			single.PayloadBytes, batched.PayloadBytes-framing, batched.PayloadBytes, framing)
	}
	var perLink uint64
	for _, ls := range links {
		perLink += ls.Bytes
	}
	if perLink != single.PayloadBytes {
		t.Fatalf("per-link bytes sum to %d, bus total is %d", perLink, single.PayloadBytes)
	}
}
