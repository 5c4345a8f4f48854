package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

func codecOccurrence() *event.Occurrence {
	inner := event.NewPrimitive("Withdraw", event.Database, stamp("bank2", 41), nil)
	o := event.NewPrimitive("Deposit", event.Database, stamp("bank1", 123), event.Params{
		"amount": int64(40), "memo": "salary", "rate": 1.5, "flag": true, "u": uint64(3),
	})
	o.Seq = 7
	o.Constituents = append(o.Constituents, inner)
	o.Stamp = core.NewSetStamp(stamp("bank1", 123), stamp("hq", 124))
	return o
}

// assertInterned checks that a decoded occurrence tree carries the
// roster-interned form of every stamp.
func assertInterned(t *testing.T, r *core.Roster, o *event.Occurrence) {
	t.Helper()
	want, ok := r.AppendCanon(nil, o.Stamp)
	if !ok {
		t.Fatalf("stamp %s not internable against the roster", o.Stamp)
	}
	if !reflect.DeepEqual(o.Interned, want) {
		t.Fatalf("decoded %s: interned stamp = %v, want %v", o.Type, o.Interned, want)
	}
	for _, c := range o.Constituents {
		assertInterned(t, r, c)
	}
}

// stripInterned drops the decode-side enrichment so DeepEqual can compare
// against the encoder's input, which never carried it.
func stripInterned(o *event.Occurrence) {
	o.Interned = nil
	for _, c := range o.Constituents {
		stripInterned(c)
	}
}

func TestRosterFrameRoundTrip(t *testing.T) {
	r := testRoster()
	buf := AppendRoster(nil, r)
	got, err := DecodeRoster(buf)
	if err != nil {
		t.Fatalf("DecodeRoster: %v", err)
	}
	if !reflect.DeepEqual(got.IDs(), r.IDs()) {
		t.Fatalf("round trip = %v, want %v", got.IDs(), r.IDs())
	}
}

func TestRosterFrameHostile(t *testing.T) {
	dup := []byte{KindRoster}
	dup = binary.AppendUvarint(dup, 2)
	dup = appendString(dup, "a")
	dup = appendString(dup, "a")
	if _, err := DecodeRoster(dup); !errors.Is(err, ErrDuplicateSite) {
		t.Fatalf("duplicate site: err = %v, want ErrDuplicateSite", err)
	}
	disorder := []byte{KindRoster}
	disorder = binary.AppendUvarint(disorder, 2)
	disorder = appendString(disorder, "b")
	disorder = appendString(disorder, "a")
	if _, err := DecodeRoster(disorder); !errors.Is(err, ErrDuplicateSite) {
		t.Fatalf("disorder: err = %v, want ErrDuplicateSite", err)
	}
	huge := binary.AppendUvarint([]byte{KindRoster}, 1<<40)
	if _, err := DecodeRoster(huge); err == nil {
		t.Fatal("hostile roster count accepted")
	}
	if _, err := DecodeRoster(binary.AppendUvarint([]byte{KindRoster}, 0)); err == nil {
		t.Fatal("empty roster accepted")
	}
}

// Sites travel as roster indexes: the decoded occurrence keeps them as its
// interned stamp, and the frame is smaller than the journal record, which
// spells every site out.
func TestCodecEventIdxRoundTrip(t *testing.T) {
	c := testCodec()
	e := Envelope{Kind: KindEvent, Occ: codecOccurrence(), RaisedAt: 1234}
	buf, err := c.Encode(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := c.Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Kind != KindEvent || got.RaisedAt != 1234 {
		t.Fatalf("envelope header = %+v", got)
	}
	// Decoding enriches: the dense indexes already on the wire are kept
	// as the interned stamp, so the receiving side compares integer-only.
	assertInterned(t, c.Roster, got.Occ)
	if !occurrenceEqual(got.Occ, e.Occ) {
		t.Fatalf("occurrence round trip:\n got %+v\nwant %+v", got.Occ, e.Occ)
	}
	record, err := AppendOccurrence(nil, e.Occ)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) >= len(record) {
		t.Fatalf("indexed frame %dB not smaller than the %dB string record", len(buf), len(record))
	}
}

func TestCodecFrontierDeltaRoundTrip(t *testing.T) {
	c := testCodec()
	for _, tc := range []struct{ global, raisedAt int64 }{
		{global: 123, raisedAt: 1234},  // frontier exactly at the raise granule
		{global: 120, raisedAt: 1239},  // frontier behind
		{global: 125, raisedAt: 1230},  // frontier ahead
		{global: -3, raisedAt: -25},    // negative time (floor semantics)
		{global: 0, raisedAt: 0},       // origin
		{global: 1 << 40, raisedAt: 7}, // wild skew still round-trips
	} {
		e := Envelope{Kind: KindHeartbeat, Global: tc.global, RaisedAt: tc.raisedAt}
		buf, err := c.Encode(e)
		if err != nil {
			t.Fatalf("encode %+v: %v", tc, err)
		}
		if buf[0] != KindFrontierDelta {
			t.Fatalf("kind byte = %d, want KindFrontierDelta", buf[0])
		}
		got, err := c.Decode(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", tc, err)
		}
		if got.Kind != KindHeartbeat || got.Global != tc.global || got.RaisedAt != tc.raisedAt {
			t.Fatalf("round trip %+v = %+v", tc, got)
		}
	}
	// A tracking frontier (global ≈ raisedAt/granule) must delta-encode
	// smaller than the absolute form.
	e := Envelope{Kind: KindHeartbeat, Global: 123456, RaisedAt: 1234567}
	dense, _ := c.Encode(e)
	absolute := binary.AppendVarint(binary.AppendVarint([]byte{KindFrontierDelta}, e.RaisedAt), e.Global)
	if len(dense) >= len(absolute) {
		t.Fatalf("delta frame %dB not smaller than absolute frame %dB", len(dense), len(absolute))
	}
}

// legacyFrames hand-builds one well-formed frame for each retired tag — the
// string-sited event (1), the absolute heartbeat (2) and the untyped
// indexed event (5) — as a peer that never upgraded would send them.
func legacyFrames(tb testing.TB) [][]byte {
	tb.Helper()
	occ := event.NewPrimitive("Deposit", event.Database, stamp("bank1", 7), event.Params{"amount": int64(40)})
	strEvent, err := AppendOccurrence(binary.AppendVarint([]byte{1}, 9), occ)
	if err != nil {
		tb.Fatal(err)
	}
	heartbeat := binary.AppendVarint(binary.AppendVarint([]byte{2}, 1), -3)
	idxEvent := binary.AppendVarint([]byte{5}, 9)
	idxEvent = appendString(idxEvent, "Deposit")
	idxEvent = append(idxEvent, byte(event.Database))
	idxEvent = binary.AppendUvarint(idxEvent, 0) // site index
	idxEvent = binary.AppendUvarint(idxEvent, 0) // seq
	idxEvent = binary.AppendUvarint(idxEvent, 0) // stamp components
	idxEvent = binary.AppendUvarint(idxEvent, 0) // params
	idxEvent = binary.AppendUvarint(idxEvent, 0) // constituents
	return [][]byte{strEvent, heartbeat, idxEvent}
}

// frameBatch wraps member frames in batch framing without looking at them.
func frameBatch(members ...[]byte) []byte {
	buf := binary.AppendUvarint([]byte{KindBatch}, uint64(len(members)))
	for _, m := range members {
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		buf = append(buf, m...)
	}
	return buf
}

// twoPassBatch is the batch encoder AppendBatch used to be: every member
// encoded on its own first, then framed behind its length.  It is the
// reference the one-pass encoder is held to.
func twoPassBatch(tb testing.TB, c *Codec, envs []Envelope) []byte {
	tb.Helper()
	members := make([][]byte, len(envs))
	for i, e := range envs {
		m, err := c.Encode(e)
		if err != nil {
			tb.Fatalf("Encode member %d: %v", i, err)
		}
		members[i] = m
	}
	return frameBatch(members...)
}

func TestCodecHostileInputs(t *testing.T) {
	c := testCodec()
	// Unknown site index: one past the roster.
	bad := []byte{KindEventTyped}
	bad = binary.AppendVarint(bad, 0)                       // raisedAt
	bad = binary.AppendUvarint(bad, 1)                      // type id
	bad = append(bad, 0)                                    // class
	bad = binary.AppendUvarint(bad, uint64(c.Roster.Len())) // site index out of range
	if _, err := c.Decode(bad); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("unknown index: err = %v, want ErrUnknownSite", err)
	}
	// Encoding a site outside the roster must fail, not silently intern.
	alien := event.NewPrimitive("T", event.Database, stamp("alien", 1), nil)
	if _, err := c.Encode(Envelope{Kind: KindEvent, Occ: alien, RaisedAt: 0}); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("alien encode: err = %v, want ErrUnknownSite", err)
	}
	// Truncated delta: header but no delta varint.
	trunc := []byte{KindFrontierDelta}
	trunc = binary.AppendVarint(trunc, 1234)
	if _, err := c.Decode(trunc); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated delta: err = %v, want ErrTruncated", err)
	}
	// Roster frames never sit in envelope positions.
	if _, err := c.Decode(AppendRoster(nil, c.Roster)); !errors.Is(err, ErrBadTag) {
		t.Fatalf("roster in envelope position: err = %v, want ErrBadTag", err)
	}
	// The retired tags are unknown tags, alone or inside a batch.
	for _, frame := range legacyFrames(t) {
		if _, err := c.Decode(frame); !errors.Is(err, ErrBadTag) {
			t.Fatalf("legacy tag %d: err = %v, want ErrBadTag", frame[0], err)
		}
		if err := c.DecodeBatch(frameBatch(frame), discard); !errors.Is(err, ErrBadTag) {
			t.Fatalf("legacy tag %d in a batch: err = %v, want ErrBadTag", frame[0], err)
		}
	}
}

// A Codec missing any of its three parts has no reduced format to fall
// back to: every method returns an error.
func TestCodecRequiresAllParts(t *testing.T) {
	full := testCodec()
	env := Envelope{Kind: KindHeartbeat, Global: 4, RaisedAt: 49}
	frame, err := full.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := full.AppendBatch(nil, []Envelope{env})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Codec{
		"no roster":   {Granule: full.Granule, Types: full.Types},
		"no granule":  {Roster: full.Roster, Types: full.Types},
		"no registry": {Roster: full.Roster, Granule: full.Granule},
		"zero":        {},
	} {
		if _, err := c.Encode(env); err == nil {
			t.Errorf("%s: Encode succeeded", name)
		}
		if _, err := c.AppendBatch(nil, []Envelope{env}); err == nil {
			t.Errorf("%s: AppendBatch succeeded", name)
		}
		if _, err := c.AppendFrontier(nil, env.Global, env.RaisedAt); err == nil {
			t.Errorf("%s: AppendFrontier succeeded", name)
		}
		if _, _, ok := c.DecodeFrontier(batch); ok {
			t.Errorf("%s: DecodeFrontier succeeded", name)
		}
		if _, err := c.Decode(frame); err == nil {
			t.Errorf("%s: Decode succeeded", name)
		}
		if err := c.DecodeBatch(batch, discard); err == nil {
			t.Errorf("%s: DecodeBatch succeeded", name)
		}
	}
}

func TestCodecBatchRoundTrip(t *testing.T) {
	c := testCodec()
	envs := []Envelope{
		{Kind: KindEvent, Occ: codecOccurrence(), RaisedAt: 9},
		{Kind: KindHeartbeat, Global: 4, RaisedAt: 49},
		{Kind: KindHeartbeat, Global: 6, RaisedAt: 58},
	}
	buf, err := c.AppendBatch(nil, envs)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if !IsBatch(buf) {
		t.Fatal("codec batch not recognized by IsBatch")
	}
	var got []Envelope
	if err := c.DecodeBatch(buf, func(e Envelope) error { got = append(got, e); return nil }); err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(got), len(envs))
	}
	for i := range envs {
		if got[i].Kind != envs[i].Kind || got[i].Global != envs[i].Global || got[i].RaisedAt != envs[i].RaisedAt {
			t.Fatalf("member %d = %+v, want %+v", i, got[i], envs[i])
		}
	}
	assertInterned(t, c.Roster, got[0].Occ)
	if !occurrenceEqual(got[0].Occ, envs[0].Occ) {
		t.Fatal("member occurrence mismatch")
	}
}
