package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// Event frames round-trip to the same occurrence, enriched with the dense
// TypeID.
func TestCodecEventTypedRoundTrip(t *testing.T) {
	c := testCodec()
	e := Envelope{Kind: KindEvent, Occ: codecOccurrence(), RaisedAt: 1234}
	buf, err := c.Encode(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if buf[0] != KindEventTyped {
		t.Fatalf("kind byte = %d, want KindEventTyped", buf[0])
	}
	got, err := c.Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Kind != KindEvent || got.RaisedAt != 1234 {
		t.Fatalf("envelope header = %+v", got)
	}
	if want := c.Types.TypeID("Deposit"); got.Occ.TypeID != want {
		t.Fatalf("decoded TypeID = %d, want %d", got.Occ.TypeID, want)
	}
	if got.Occ.Constituents[0].TypeID != c.Types.TypeID("Withdraw") {
		t.Fatalf("constituent TypeID = %d", got.Occ.Constituents[0].TypeID)
	}
	assertInterned(t, c.Roster, got.Occ)
	stripInterned(got.Occ)
	stripTypeIDs(got.Occ)
	if !reflect.DeepEqual(got.Occ, e.Occ) {
		t.Fatalf("occurrence round trip:\n got %+v\nwant %+v", got.Occ, e.Occ)
	}
	// A declared type must travel smaller than the same name through the
	// escape: a one- or two-byte uvarint replaces a length-prefixed name.
	escaped, err := (&Codec{Roster: c.Roster, Granule: c.Granule, Types: event.NewRegistry()}).Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) >= len(escaped) {
		t.Fatalf("typed frame %dB not smaller than escaped-name frame %dB", len(buf), len(escaped))
	}
}

func stripTypeIDs(o *event.Occurrence) {
	o.TypeID = 0
	for _, c := range o.Constituents {
		stripTypeIDs(c)
	}
}

// Occurrences whose type the registry does not know — anonymous inner
// composites like "(A ; B)" — travel through the 0+string escape and
// still round-trip.
func TestCodecEventTypedUndeclaredName(t *testing.T) {
	c := testCodec()
	inner := event.NewPrimitive("Withdraw", event.Database, stamp("bank2", 41), nil)
	anon := &event.Occurrence{
		Type:         "(Withdraw ; Deposit)",
		Class:        event.Composite,
		Site:         "bank1",
		Stamp:        core.NewSetStamp(stamp("bank1", 50)),
		Constituents: []*event.Occurrence{inner},
	}
	e := Envelope{Kind: KindEvent, Occ: anon, RaisedAt: 7}
	buf, err := c.Encode(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := c.Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Occ.Type != anon.Type {
		t.Fatalf("type = %q, want %q", got.Occ.Type, anon.Type)
	}
	if got.Occ.TypeID != 0 {
		t.Fatalf("undeclared type decoded with TypeID %d, want 0", got.Occ.TypeID)
	}
	if got.Occ.Constituents[0].TypeID != c.Types.TypeID("Withdraw") {
		t.Fatal("declared constituent lost its TypeID through the escape path")
	}
}

// An occurrence already carrying its TypeID encodes to the same bytes as
// one that needs the name lookup: the fast path is a pure optimization.
func TestCodecEventTypedPrefilledID(t *testing.T) {
	c := testCodec()
	plain := codecOccurrence()
	filled := codecOccurrence()
	filled.TypeID = c.Types.TypeID("Deposit")
	filled.Constituents[0].TypeID = c.Types.TypeID("Withdraw")
	b1, err := c.Encode(Envelope{Kind: KindEvent, Occ: plain, RaisedAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Encode(Envelope{Kind: KindEvent, Occ: filled, RaisedAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Fatalf("prefilled TypeID changed the wire bytes:\n %v\n %v", b1, b2)
	}
}

// Hostile typed frames: out-of-range IDs and truncation.
func TestCodecEventTypedHostile(t *testing.T) {
	c := testCodec()
	buf, err := c.Encode(Envelope{Kind: KindEvent, Occ: codecOccurrence(), RaisedAt: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A registry that never saw the declarations must reject the IDs, not
	// misread them.
	bare := &Codec{Roster: c.Roster, Granule: c.Granule, Types: event.NewRegistry()}
	if _, err := bare.Decode(buf); !errors.Is(err, ErrUnknownTypeID) {
		t.Fatalf("empty-registry decode: err = %v, want ErrUnknownTypeID", err)
	}
	// An index beyond the registry is corruption.
	evil := []byte{KindEventTyped}
	evil = appendVarint(evil, 1)                     // raisedAt
	evil = binary.AppendUvarint(evil, uint64(1<<20)) // type index way out of range
	if _, err := c.Decode(evil); !errors.Is(err, ErrUnknownTypeID) {
		t.Fatalf("out-of-range id: err = %v, want ErrUnknownTypeID", err)
	}
	// Truncations anywhere must error, never panic.
	for i := range buf {
		if _, err := c.Decode(buf[:i]); err == nil && i > 0 {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

// Typed frames flow through batches like any other member frame.
func TestCodecTypedBatchRoundTrip(t *testing.T) {
	c := testCodec()
	envs := []Envelope{
		{Kind: KindEvent, Occ: codecOccurrence(), RaisedAt: 1},
		{Kind: KindHeartbeat, Global: 12, RaisedAt: 125},
		{Kind: KindEvent, Occ: codecOccurrence(), RaisedAt: 3},
	}
	buf, err := c.AppendBatch(nil, envs)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	var got []Envelope
	if err := c.DecodeBatch(buf, func(e Envelope) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(got), len(envs))
	}
	for i, e := range got {
		if e.Kind != envs[i].Kind || e.RaisedAt != envs[i].RaisedAt {
			t.Fatalf("envelope %d header = %+v, want %+v", i, e, envs[i])
		}
		if e.Kind == KindEvent && e.Occ.TypeID == 0 {
			t.Fatalf("envelope %d decoded without TypeID", i)
		}
	}
}
