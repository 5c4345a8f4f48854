package wire

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// The golden frames pin the bytes the transport puts on the wire: a
// typed event frame exercising every field (a declared type, the
// undeclared-name escape on the constituent, a two-component stamp,
// parameters), a frontier delta, and the batch of the two.  The literals
// were captured from the commit before the string-sited frames were
// deleted, so a change here is a change of the on-wire format.
const (
	goldenTyped = "07a21303040007020018f6010218f80102046d656d6f020673616c617279016e005401001428" +
		"5769746864726177203b204465706f73697429040100010108520000"
	goldenDelta = "069a1303"
	goldenBatch = "03024207a21303040007020018f6010218f80102046d656d6f020673616c617279016e005401" +
		"0014285769746864726177203b204465706f7369742904010001010852000004069a1303"
)

func goldenEnvelopes() (typed, delta Envelope) {
	anon := &event.Occurrence{
		Type:  "(Withdraw ; Deposit)",
		Class: event.Composite,
		Site:  "bank2",
		Stamp: core.NewSetStamp(stamp("bank2", 41)),
	}
	o := &event.Occurrence{
		Type:         "Pair",
		Class:        event.Composite,
		Site:         "bank1",
		Seq:          7,
		Stamp:        core.NewSetStamp(stamp("bank1", 123), stamp("hq", 124)),
		Params:       event.Params{"memo": "salary", "n": 42},
		Constituents: []*event.Occurrence{anon},
	}
	return Envelope{Kind: KindEvent, Occ: o, RaisedAt: 1233},
		Envelope{Kind: KindHeartbeat, Global: 120, RaisedAt: 1229}
}

func TestGoldenFrames(t *testing.T) {
	c := &Codec{
		Roster:  core.NewRoster([]core.SiteID{"bank1", "bank2", "hq"}),
		Granule: 10,
		Types:   testRegistry(),
	}
	typed, delta := goldenEnvelopes()
	frame := func(e Envelope) string {
		t.Helper()
		buf, err := c.Encode(e)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return hex.EncodeToString(buf)
	}
	if got := frame(typed); got != goldenTyped {
		t.Errorf("typed event frame drifted:\n got %s\nwant %s", got, goldenTyped)
	}
	if got := frame(delta); got != goldenDelta {
		t.Errorf("frontier delta frame drifted:\n got %s\nwant %s", got, goldenDelta)
	}
	batch, err := c.AppendBatch(nil, []Envelope{typed, delta})
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if got := hex.EncodeToString(batch); got != goldenBatch {
		t.Errorf("batch frame drifted:\n got %s\nwant %s", got, goldenBatch)
	}
	// The pinned bytes are also what the decoder accepts.
	want, _ := hex.DecodeString(goldenBatch)
	n := 0
	if err := c.DecodeBatch(want, func(Envelope) error { n++; return nil }); err != nil || n != 2 {
		t.Fatalf("golden batch decoded %d envelopes, err %v", n, err)
	}
}
