package wire

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/event"
)

func sampleEnvelopes() []Envelope {
	o1 := event.NewPrimitive("Deposit", event.Database, stamp("bank1", 11), event.Params{
		"amount": int64(40), "memo": "salary",
	})
	o1.Seq = 3
	o2 := event.NewPrimitive("Withdraw", event.Explicit, stamp("bank2", 17), nil)
	o2.Seq = 4
	return []Envelope{
		{Kind: KindEvent, Occ: o1, RaisedAt: 100},
		{Kind: KindHeartbeat, Global: 55, RaisedAt: 120},
		{Kind: KindEvent, Occ: o2, RaisedAt: 140},
	}
}

func encodeBatch(t *testing.T, envs []Envelope) []byte {
	t.Helper()
	buf, err := testCodec().AppendBatch(nil, envs)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	return buf
}

func decodeBatchAll(buf []byte) ([]Envelope, error) {
	var out []Envelope
	err := testCodec().DecodeBatch(buf, func(e Envelope) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

func TestBatchRoundTrip(t *testing.T) {
	envs := sampleEnvelopes()
	buf := encodeBatch(t, envs)
	if !IsBatch(buf) {
		t.Fatalf("IsBatch = false on a batch frame")
	}
	got, err := decodeBatchAll(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(got), len(envs))
	}
	for i, e := range got {
		w := envs[i]
		if e.Kind != w.Kind || e.Global != w.Global || e.RaisedAt != w.RaisedAt {
			t.Fatalf("envelope %d = %+v, want %+v", i, e, w)
		}
		if (e.Occ == nil) != (w.Occ == nil) {
			t.Fatalf("envelope %d Occ presence mismatch", i)
		}
		if e.Occ != nil && !occurrenceEqual(e.Occ, w.Occ) {
			t.Fatalf("envelope %d occurrence mismatch", i)
		}
	}
}

// Each batch member must be byte-identical to its single-envelope frame:
// the batch adds framing, never re-encodes.
func TestBatchMembersMatchSingleFrames(t *testing.T) {
	envs := sampleEnvelopes()
	buf := encodeBatch(t, envs)
	r := &reader{buf: buf}
	if k, _ := r.byte(); k != KindBatch {
		t.Fatalf("kind = %d", k)
	}
	n, err := r.uvarint()
	if err != nil || n != uint64(len(envs)) {
		t.Fatalf("count = %d, %v", n, err)
	}
	for i, e := range envs {
		l, err := r.uvarint()
		if err != nil {
			t.Fatalf("member %d length: %v", i, err)
		}
		member := r.buf[r.pos : r.pos+int(l)]
		r.pos += int(l)
		single, err := testCodec().Encode(e)
		if err != nil {
			t.Fatalf("Encode member %d: %v", i, err)
		}
		if string(member) != string(single) {
			t.Fatalf("member %d bytes differ from single-envelope frame", i)
		}
	}
}

func TestEncodeAppendMatchesEncode(t *testing.T) {
	c := testCodec()
	for i, e := range sampleEnvelopes() {
		a, err := c.Encode(e)
		if err != nil {
			t.Fatalf("Encode %d: %v", i, err)
		}
		prefix := []byte{0xde, 0xad}
		b, err := c.EncodeAppend(prefix, e)
		if err != nil {
			t.Fatalf("EncodeAppend %d: %v", i, err)
		}
		if string(b[:2]) != string(prefix[:2]) || string(b[2:]) != string(a) {
			t.Fatalf("EncodeAppend %d diverged from Encode", i)
		}
	}
}

func TestDecodeRejectsTopLevelBatch(t *testing.T) {
	buf := encodeBatch(t, sampleEnvelopes())
	if _, err := testCodec().Decode(buf); !errors.Is(err, ErrNestedBatch) {
		t.Fatalf("Decode(batch) err = %v, want ErrNestedBatch", err)
	}
}

func TestNestedBatchRejected(t *testing.T) {
	inner := encodeBatch(t, sampleEnvelopes())
	// Hand-build an outer frame claiming one member whose bytes are the
	// inner batch — AppendBatch itself refuses to encode this.
	outer := []byte{KindBatch}
	outer = binary.AppendUvarint(outer, 1)
	outer = binary.AppendUvarint(outer, uint64(len(inner)))
	outer = append(outer, inner...)
	_, err := decodeBatchAll(outer)
	if !errors.Is(err, ErrNestedBatch) {
		t.Fatalf("nested batch err = %v, want ErrNestedBatch", err)
	}

	if _, aerr := testCodec().AppendBatch(nil, []Envelope{{Kind: KindBatch}}); !errors.Is(aerr, ErrNestedBatch) {
		t.Fatalf("AppendBatch(KindBatch member) err = %v, want ErrNestedBatch", aerr)
	}
}

func TestBatchHostileInputs(t *testing.T) {
	valid := encodeBatch(t, sampleEnvelopes())

	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := decodeBatchAll(valid[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := decodeBatchAll(append(append([]byte{}, valid...), 0x7)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("huge count", func(t *testing.T) {
		buf := binary.AppendUvarint([]byte{KindBatch}, 1<<40)
		if _, err := decodeBatchAll(buf); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("zero count", func(t *testing.T) {
		buf := binary.AppendUvarint([]byte{KindBatch}, 0)
		if _, err := decodeBatchAll(buf); err == nil {
			t.Fatalf("empty batch accepted")
		}
	})
	t.Run("member length past end", func(t *testing.T) {
		buf := binary.AppendUvarint([]byte{KindBatch}, 1)
		buf = binary.AppendUvarint(buf, 1<<40)
		if _, err := decodeBatchAll(buf); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("member shorter than declared", func(t *testing.T) {
		single, _ := testCodec().Encode(Envelope{Kind: KindHeartbeat, Global: 1, RaisedAt: 2})
		buf := binary.AppendUvarint([]byte{KindBatch}, 1)
		buf = binary.AppendUvarint(buf, uint64(len(single)+3))
		buf = append(buf, single...)
		buf = append(buf, 0, 0, 0) // padding inside the declared window
		if _, err := decodeBatchAll(buf); err == nil {
			t.Fatalf("padded member accepted")
		}
	})
	t.Run("not a batch", func(t *testing.T) {
		single, _ := testCodec().Encode(Envelope{Kind: KindHeartbeat, Global: 1, RaisedAt: 2})
		if _, err := decodeBatchAll(single); !errors.Is(err, ErrBadTag) {
			t.Fatalf("err = %v", err)
		}
		if IsBatch(single) || IsBatch(nil) {
			t.Fatalf("IsBatch false positive")
		}
	})
}

func TestDecodeBatchCallbackErrorAborts(t *testing.T) {
	buf := encodeBatch(t, sampleEnvelopes())
	boom := errors.New("boom")
	seen := 0
	err := testCodec().DecodeBatch(buf, func(Envelope) error {
		seen++
		if seen == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || seen != 2 {
		t.Fatalf("err = %v after %d envelopes", err, seen)
	}
}

func TestValidateOccurrence(t *testing.T) {
	good := event.NewPrimitive("A", event.Database, stamp("s", 1), event.Params{"n": 7, "s": "x"})
	if err := ValidateOccurrence(good); err != nil {
		t.Fatalf("valid occurrence rejected: %v", err)
	}
	bad := event.NewPrimitive("A", event.Database, stamp("s", 1), event.Params{"ch": make(chan int)})
	if err := ValidateOccurrence(bad); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	// Validate must agree with both encoders on both.
	c := testCodec()
	if _, err := c.Encode(Envelope{Kind: KindEvent, Occ: good}); err != nil {
		t.Fatalf("encoder rejects what Validate accepted: %v", err)
	}
	if _, err := AppendOccurrence(nil, good); err != nil {
		t.Fatalf("journal record rejects what Validate accepted: %v", err)
	}
	if _, err := c.Encode(Envelope{Kind: KindEvent, Occ: bad}); err == nil {
		t.Fatalf("encoder accepts what Validate rejected")
	}
	if _, err := AppendOccurrence(nil, bad); err == nil {
		t.Fatalf("journal record accepts what Validate rejected")
	}
	// Depth abuse: a linear constituent chain past maxDepth.
	deep := event.NewPrimitive("A", event.Database, stamp("s", 1), nil)
	for i := 0; i < maxDepth+2; i++ {
		parent := event.NewPrimitive("A", event.Database, stamp("s", 1), nil)
		parent.Constituents = []*event.Occurrence{deep}
		deep = parent
	}
	if err := ValidateOccurrence(deep); err == nil {
		t.Fatalf("over-deep occurrence accepted")
	}
}

// Steady-state batch encoding — recycled dst, warm pools — must not
// allocate, even with parameterized occurrences (the sorted-key scratch
// is pooled too).
func TestAppendBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	c := testCodec()
	envs := sampleEnvelopes()
	dst, err := c.AppendBatch(nil, envs) // warm dst and the pools
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, err = c.AppendBatch(dst[:0], envs)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendBatch: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkBatchEncode(b *testing.B) {
	c := testCodec()
	envs := sampleEnvelopes()
	dst, err := c.AppendBatch(nil, envs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = c.AppendBatch(dst[:0], envs)
		if err != nil {
			b.Fatal(err)
		}
	}
	benchSinkBytes = dst
}

func BenchmarkBatchDecode(b *testing.B) {
	c := testCodec()
	buf, err := c.AppendBatch(nil, sampleEnvelopes())
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	count := func(Envelope) error { n++; return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.DecodeBatch(buf, count); err != nil {
			b.Fatal(err)
		}
	}
	benchSinkInt = n
}

var (
	benchSinkBytes []byte
	benchSinkInt   int
)
