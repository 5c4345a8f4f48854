package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

func stamp(site string, local int64) core.Stamp {
	return core.DeriveStamp(core.SiteID(site), local, 10)
}

// testRoster covers every site the tests stamp with.
func testRoster() *core.Roster {
	return core.NewRoster([]core.SiteID{
		"bank1", "bank2", "hq", "hub", "s", "s0", "s1", "s2", "s3", "x", "y"})
}

// testRegistry declares some of the types the tests raise; the rest travel
// through the undeclared-name escape.
func testRegistry() *event.Registry {
	reg := event.NewRegistry()
	reg.MustDeclare("Withdraw", event.Database)
	reg.MustDeclare("Deposit", event.Database)
	reg.MustDeclare("Pair", event.Composite)
	return reg
}

func testCodec() *Codec {
	return &Codec{Roster: testRoster(), Granule: 10, Types: testRegistry()}
}

func roundTrip(t *testing.T, e Envelope) Envelope {
	t.Helper()
	c := testCodec()
	buf, err := c.Encode(e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := c.Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestHeartbeatRoundTrip(t *testing.T) {
	e := Envelope{Kind: KindHeartbeat, Global: -42, RaisedAt: 12345}
	got := roundTrip(t, e)
	if got.Kind != KindHeartbeat || got.Global != -42 || got.RaisedAt != 12345 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestPrimitiveOccurrenceRoundTrip(t *testing.T) {
	o := event.NewPrimitive("Deposit", event.Database, stamp("bank1", 123), event.Params{
		"amount": int64(40),
		"rate":   1.25,
		"memo":   "salary",
		"flag":   true,
		"n":      7,
		"u":      uint64(9),
	})
	o.Seq = 99
	got := roundTrip(t, Envelope{Kind: KindEvent, Occ: o, RaisedAt: 5})
	g := got.Occ
	if g.Type != "Deposit" || g.Class != event.Database || g.Site != "bank1" || g.Seq != 99 {
		t.Fatalf("fields: %+v", g)
	}
	if !g.Stamp.Equal(o.Stamp) {
		t.Fatalf("stamp: %s vs %s", g.Stamp, o.Stamp)
	}
	// int is normalized to int64 on the wire.
	want := event.Params{"amount": int64(40), "rate": 1.25, "memo": "salary",
		"flag": true, "n": int64(7), "u": uint64(9)}
	if !reflect.DeepEqual(map[string]any(g.Params), map[string]any(want)) {
		t.Fatalf("params: %v vs %v", g.Params, want)
	}
}

func TestCompositeTreeRoundTrip(t *testing.T) {
	a := event.NewPrimitive("A", event.Explicit, stamp("s1", 100), event.Params{"k": int64(1)})
	b := event.NewPrimitive("B", event.Explicit, stamp("s2", 105), nil)
	inner := event.NewComposite("AB", "hub", a, b)
	c := event.NewPrimitive("C", event.Explicit, stamp("s1", 300), nil)
	outer := event.NewComposite("ABC", "hub", inner, c)

	got := roundTrip(t, Envelope{Kind: KindEvent, Occ: outer}).Occ
	if got.Type != "ABC" || len(got.Constituents) != 2 {
		t.Fatalf("outer: %+v", got)
	}
	if !got.Stamp.Equal(outer.Stamp) {
		t.Fatalf("outer stamp differs")
	}
	flat := got.Flatten()
	if len(flat) != 3 || flat[0].Type != "A" || flat[1].Type != "B" || flat[2].Type != "C" {
		t.Fatalf("flattened: %v", flat)
	}
	if flat[0].Params["k"] != int64(1) {
		t.Fatalf("nested params lost: %v", flat[0].Params)
	}
}

func TestConcurrentSetStampRoundTrip(t *testing.T) {
	s := core.NewSetStamp(stamp("x", 100), stamp("y", 105))
	b := appendSetStamp(nil, s)
	r := &reader{buf: b}
	got, err := r.setStamp()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("set stamp: %s vs %s", got, s)
	}
}

func TestUnsupportedParamType(t *testing.T) {
	o := event.NewPrimitive("E", event.Explicit, stamp("s", 1), event.Params{"bad": []int{1}})
	if _, err := testCodec().Encode(Envelope{Kind: KindEvent, Occ: o}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if _, err := AppendOccurrence(nil, o); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("journal record: err = %v, want ErrUnsupported", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	c := testCodec()
	if _, err := c.Encode(Envelope{Kind: KindEvent}); err == nil {
		t.Fatalf("event envelope without occurrence accepted")
	}
	if _, err := c.Encode(Envelope{Kind: 99}); !errors.Is(err, ErrBadTag) {
		t.Fatalf("bad kind = %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	o := event.NewPrimitive("Deposit", event.Database, stamp("bank1", 123),
		event.Params{"amount": int64(40)})
	c := testCodec()
	buf, err := c.Encode(Envelope{Kind: KindEvent, Occ: o})
	if err != nil {
		t.Fatal(err)
	}
	record, err := AppendOccurrence(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must fail cleanly, never panic.
	for i := 0; i < len(buf); i++ {
		if _, err := c.Decode(buf[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	for i := 0; i < len(record); i++ {
		if _, err := DecodeOccurrence(record[:i]); err == nil {
			t.Fatalf("journal record truncated at %d accepted", i)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := c.Decode(append(append([]byte{}, buf...), 0x00)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing garbage = %v", err)
	}
	if _, err := DecodeOccurrence(append(append([]byte{}, record...), 0x00)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("journal record trailing garbage = %v", err)
	}
	// Unknown envelope kind.
	bad := append([]byte{}, buf...)
	bad[0] = 9
	if _, err := c.Decode(bad); !errors.Is(err, ErrBadTag) {
		t.Fatalf("bad kind byte = %v", err)
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	c := testCodec()
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		n := r.Intn(64)
		buf := make([]byte, n)
		r.Read(buf)
		_, _ = c.Decode(buf) // must not panic
		_, _ = DecodeOccurrence(buf)
	}
}

// randomOccurrence builds a random occurrence tree for property testing.
func randomOccurrence(r *rand.Rand, depth int) *event.Occurrence {
	if depth <= 0 || r.Intn(3) == 0 {
		params := event.Params{}
		switch r.Intn(4) {
		case 0:
			params["v"] = r.Int63()
		case 1:
			params["v"] = r.Float64()
		case 2:
			params["v"] = "s" + string(rune('a'+r.Intn(26)))
		case 3:
			params["v"] = r.Intn(2) == 0
		}
		return event.NewPrimitive(
			"T"+string(rune('A'+r.Intn(4))), event.Explicit,
			stamp("s"+string(rune('0'+r.Intn(4))), r.Int63n(10_000)), params)
	}
	n := 1 + r.Intn(3)
	kids := make([]*event.Occurrence, n)
	for i := range kids {
		kids[i] = randomOccurrence(r, depth-1)
	}
	return event.NewComposite("C"+string(rune('A'+r.Intn(4))), "hub", kids...)
}

func occurrenceEqual(a, b *event.Occurrence) bool {
	if a.Type != b.Type || a.Class != b.Class || a.Site != b.Site || a.Seq != b.Seq {
		return false
	}
	if !a.Stamp.Equal(b.Stamp) {
		return false
	}
	if len(a.Params) != len(b.Params) {
		// nil and empty collapse on the wire; treat both as equal.
		if !(len(a.Params) == 0 && len(b.Params) == 0) {
			return false
		}
	}
	for k, v := range a.Params {
		w, ok := b.Params[k]
		if !ok {
			return false
		}
		// ints normalize to int64.
		if iv, isInt := v.(int); isInt {
			v = int64(iv)
		}
		if !reflect.DeepEqual(v, w) {
			return false
		}
	}
	if len(a.Constituents) != len(b.Constituents) {
		return false
	}
	for i := range a.Constituents {
		if !occurrenceEqual(a.Constituents[i], b.Constituents[i]) {
			return false
		}
	}
	return true
}

func TestRandomOccurrenceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 2000; trial++ {
		o := randomOccurrence(r, 3)
		got := roundTrip(t, Envelope{Kind: KindEvent, Occ: o, RaisedAt: int64(trial)})
		if !occurrenceEqual(o, got.Occ) {
			t.Fatalf("trial %d: round trip changed occurrence:\n  in:  %v\n  out: %v", trial, o, got.Occ)
		}
		if got.RaisedAt != int64(trial) {
			t.Fatalf("RaisedAt lost")
		}
		// The journal record carries the same tree with names spelled out.
		record, err := AppendOccurrence(nil, o)
		if err != nil {
			t.Fatalf("trial %d: AppendOccurrence: %v", trial, err)
		}
		back, err := DecodeOccurrence(record)
		if err != nil || !occurrenceEqual(o, back) {
			t.Fatalf("trial %d: journal record round trip: %v\n  in:  %v\n  out: %v", trial, err, o, back)
		}
	}
}

func TestDepthLimit(t *testing.T) {
	o := event.NewPrimitive("E", event.Explicit, stamp("s", 1), nil)
	for i := 0; i < maxDepth+2; i++ {
		o = event.NewComposite("C", "hub", o)
	}
	if _, err := testCodec().Encode(Envelope{Kind: KindEvent, Occ: o}); err == nil {
		t.Fatalf("over-deep tree accepted")
	}
	if _, err := AppendOccurrence(nil, o); err == nil {
		t.Fatalf("over-deep tree accepted by the journal record")
	}
}

func TestNegativeStampComponents(t *testing.T) {
	// Zigzag varints must handle negative globals/locals.
	s := core.Stamp{Site: "s", Global: -5, Local: -50}
	b := appendStamp(nil, s)
	r := &reader{buf: b}
	got, err := r.stamp()
	if err != nil || got != s {
		t.Fatalf("negative stamp round trip: %v %v", got, err)
	}
}
