package wire

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// compositeEnvelope is a two-constituent composite, one constituent
// parameterized, with a codec whose registry declares every type.
func compositeEnvelope() (*Codec, Envelope) {
	a := event.NewPrimitive("A", event.Explicit, core.DeriveStamp("s1", 100, 10),
		event.Params{"qty": int64(40), "sym": "IBM"})
	c := event.NewPrimitive("B", event.Explicit, core.DeriveStamp("s2", 105, 10), nil)
	comp := event.NewComposite("AB", "hub", a, c)
	reg := event.NewRegistry()
	for _, typ := range []string{"A", "B"} {
		reg.MustDeclare(typ, event.Explicit)
	}
	reg.MustDeclare("AB", event.Composite)
	codec := &Codec{Roster: core.NewRoster([]core.SiteID{"hub", "s1", "s2"}), Granule: 10, Types: reg}
	return codec, Envelope{Kind: KindEvent, Occ: comp, RaisedAt: 5}
}

// TestCodecAllocs pins what the codec allocates per call once its pools
// are warm: encoding a composite envelope nothing; decoding it without an
// occurrence pool no more than the occurrences, stamps, params and
// constituent slice it hands back, and the three-envelope sample batch
// likewise; and decoding parameterless events into an occurrence pool
// nothing at all — a composite with its constituents, or a batch of
// events and a heartbeat — when the caller releases what it decoded.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	codec, env := compositeEnvelope()
	buf, err := codec.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	batchCodec := testCodec()
	batch, err := batchCodec.AppendBatch(nil, sampleEnvelopes())
	if err != nil {
		t.Fatal(err)
	}
	discard := func(Envelope) error { return nil }

	pooled := *codec
	pooled.Pool = event.NewPool(pooled.Roster)
	bare := Envelope{Kind: KindEvent, RaisedAt: 5, Occ: event.NewComposite("AB", "hub",
		event.NewPrimitive("A", event.Explicit, core.DeriveStamp("s1", 100, 10), nil),
		event.NewPrimitive("B", event.Explicit, core.DeriveStamp("s2", 105, 10), nil))}
	bareBuf, err := pooled.Encode(bare)
	if err != nil {
		t.Fatal(err)
	}
	bareBatch, err := pooled.AppendBatch(nil, []Envelope{
		{Kind: KindEvent, RaisedAt: 5, Occ: bare.Occ.Constituents[0]},
		{Kind: KindHeartbeat, Global: 11, RaisedAt: 110},
		{Kind: KindEvent, RaisedAt: 6, Occ: bare.Occ.Constituents[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	release := func(e Envelope) error {
		e.Occ.Release()
		return nil
	}
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"Encode", 0, func() error { _, err := codec.Encode(env); return err }},
		{"Decode", 17, func() error { _, err := codec.Decode(buf); return err }},
		{"DecodeBatch", 12, func() error { return batchCodec.DecodeBatch(batch, discard) }},
		{"Decode/pooled", 0, func() error {
			e, err := pooled.Decode(bareBuf)
			if err == nil {
				e.Occ.Release()
			}
			return err
		}},
		{"DecodeBatch/pooled", 0, func() error { return pooled.DecodeBatch(bareBatch, release) }},
	} {
		n := testing.AllocsPerRun(100, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs", c.name, n)
		if n > c.max {
			t.Errorf("%s: %v allocs per call, want ≤ %v", c.name, n, c.max)
		}
	}
	if ps := pooled.Pool.Stats(); ps.Gets == 0 || ps.Gets != ps.Puts || ps.DoublePuts != 0 {
		t.Errorf("pooled decode: %+v, want every decoded occurrence recycled once", ps)
	}
}
