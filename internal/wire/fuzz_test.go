package wire

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// discard is the DecodeBatch callback the fuzzer uses: accept everything,
// so the decoder itself is what's under attack.
func discard(Envelope) error { return nil }

// fuzzSeeds is the regression corpus: every shape that has tripped (or
// could plausibly trip) the decoder — run by plain `go test` through
// FuzzDecode's seed phase and again explicitly by TestFuzzSeedsDontPanic,
// so the corpus guards CI even without -fuzz.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	occ := event.NewPrimitive("Deposit", event.Database, stamp("bank1", 7), event.Params{
		"amount": int64(40), "memo": "salary", "rate": 1.5, "flag": true, "u": uint64(3),
	})
	occ.Seq = 2
	// Frames under the retired tags 1, 2 and 5, and a batch of the first
	// two: what a peer that never upgraded would send.
	legacy := legacyFrames(tb)
	single, hb := legacy[0], legacy[1]
	batch := frameBatch(single, hb)

	seeds := [][]byte{
		nil,
		{},
		single,
		hb,
		batch,
		single[:len(single)/2], // truncated envelope
		batch[:len(batch)/2],   // truncated batch
		append(batch[:0:0], batch...)[:len(batch)-1],
		{KindBatch},        // batch with no count
		{KindEventTyped},   // envelope with no body
		{0xFF, 0x01, 0x02}, // unknown kind
		binary.AppendUvarint([]byte{KindBatch}, 0),                // zero count
		binary.AppendUvarint([]byte{KindBatch}, 1<<40),            // hostile count
		binary.AppendUvarint([]byte{KindBatch}, uint64(maxBatch)), // max count, no members
	}
	// Member length abuse: claims far more bytes than remain.
	abuse := binary.AppendUvarint([]byte{KindBatch}, 1)
	abuse = binary.AppendUvarint(abuse, 1<<40)
	seeds = append(seeds, abuse)
	// Nested batch: outer frame whose one member is itself a batch.
	nested := binary.AppendUvarint([]byte{KindBatch}, 1)
	nested = binary.AppendUvarint(nested, uint64(len(batch)))
	seeds = append(seeds, append(nested, batch...))
	// Depth abuse on the occurrence tree, as a journal record and as an
	// event frame: each level claims one constituent, far past maxDepth.
	var deepRecord []byte
	deepFrame := binary.AppendVarint([]byte{KindEventTyped}, 0) // RaisedAt
	for i := 0; i < maxDepth+8; i++ {
		deepRecord = appendString(deepRecord, "A")  // type
		deepRecord = append(deepRecord, 0)          // class
		deepRecord = appendString(deepRecord, "s")  // site
		deepRecord = append(deepRecord, 0, 0, 0, 1) // seq, stamp components, params; one constituent
		deepFrame = append(deepFrame, 1, 0, 0)      // type id, class, site index
		deepFrame = append(deepFrame, 0, 0, 0, 1)   // seq, stamp components, params; one constituent
	}
	seeds = append(seeds, deepRecord, deepFrame)
	// Hostile string length inside an envelope (the undeclared-name escape).
	longStr := []byte{KindEventTyped}
	longStr = binary.AppendVarint(longStr, 0)
	longStr = binary.AppendUvarint(longStr, 0)     // escape marker
	longStr = binary.AppendUvarint(longStr, 1<<40) // type-string length
	seeds = append(seeds, longStr)

	roster := fuzzCodec.Roster
	seeds = append(seeds, AppendRoster(nil, roster))
	idxEnv, err := fuzzCodec.Encode(Envelope{Kind: KindEvent, Occ: occ, RaisedAt: 9})
	if err != nil {
		tb.Fatal(err)
	}
	delta, err := fuzzCodec.Encode(Envelope{Kind: KindHeartbeat, Global: 3, RaisedAt: 31})
	if err != nil {
		tb.Fatal(err)
	}
	denseBatch, err := fuzzCodec.AppendBatch(nil, []Envelope{
		{Kind: KindEvent, Occ: occ, RaisedAt: 9},
		{Kind: KindHeartbeat, Global: 4, RaisedAt: 42},
	})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds,
		idxEnv,
		delta,
		denseBatch,
		idxEnv[:len(idxEnv)/2],         // truncated idx frame
		delta[:len(delta)-1],           // truncated delta
		denseBatch[:len(denseBatch)-2], // truncated dense batch
	)
	// Lone-frontier frames — most of what a bus carries — and every
	// truncation of them.
	for _, f := range [][2]int64{{3, 31}, {-2, -15}, {1 << 40, 1 << 43}} {
		lone, err := fuzzCodec.AppendFrontier(nil, f[0], f[1])
		if err != nil {
			tb.Fatal(err)
		}
		for cut := len(lone); cut > 0; cut-- {
			seeds = append(seeds, lone[:cut])
		}
	}
	// Unknown site index: one past the roster length.
	unknownIdx := []byte{KindEventTyped}
	unknownIdx = binary.AppendVarint(unknownIdx, 0)
	unknownIdx = binary.AppendUvarint(unknownIdx, 1)
	unknownIdx = append(unknownIdx, 0)
	unknownIdx = binary.AppendUvarint(unknownIdx, uint64(roster.Len()))
	seeds = append(seeds, unknownIdx, legacy[2])
	// Duplicate site in a roster frame.
	dupRoster := []byte{KindRoster}
	dupRoster = binary.AppendUvarint(dupRoster, 2)
	dupRoster = appendString(dupRoster, "s")
	dupRoster = appendString(dupRoster, "s")
	seeds = append(seeds, dupRoster)
	// Hostile roster count with no members.
	seeds = append(seeds, binary.AppendUvarint([]byte{KindRoster}, 1<<40))
	return seeds
}

// fuzzCodec is the decoder under attack: a small fixed roster, granule
// and registry, so the well-formed seeds decode.
var fuzzCodec = &Codec{
	Roster:  core.NewRoster([]core.SiteID{"bank1", "s", "t"}),
	Granule: 10,
	Types:   testRegistry(),
}

// fuzzPooled is fuzzCodec decoding into a Strict occurrence pool: a
// decode error that released a partly built occurrence, or released one
// twice, panics as a double put.
var fuzzPooled = func() *Codec {
	c := *fuzzCodec
	c.Pool = event.NewPool(c.Roster)
	c.Pool.Strict = true
	return &c
}()

// releaseDecoded is the pooled DecodeBatch callback: it drops the
// creator's reference of every decoded occurrence, so the next input
// decodes into recycled storage.
func releaseDecoded(e Envelope) error {
	e.Occ.Release()
	return nil
}

// exercise runs every decoder entry point over data, with and without an
// occurrence pool; any panic or unbounded allocation is the fuzzer's (or
// the corpus test's) failure, and so is a frame DecodeFrontier takes that
// DecodeBatch reads differently.
func exercise(data []byte) {
	if IsBatch(data) {
		_ = fuzzCodec.DecodeBatch(data, discard)
		_ = fuzzPooled.DecodeBatch(data, releaseDecoded)
	}
	if msg := frontierDisagreement(fuzzCodec, data); msg != "" {
		panic(msg)
	}
	_, _ = fuzzCodec.Decode(data)
	if e, err := fuzzPooled.Decode(data); err == nil {
		e.Occ.Release()
	}
	_, _ = DecodeOccurrence(data)
	_, _ = DecodeRoster(data)
}

// checkNoDoublePut fails when the pooled decoder averted a double put
// (Strict panics first; the counter is the second witness).
func checkNoDoublePut(tb testing.TB) {
	tb.Helper()
	if ps := fuzzPooled.Pool.Stats(); ps.DoublePuts != 0 {
		tb.Fatalf("pooled decode: %d double puts", ps.DoublePuts)
	}
}

func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exercise(data)
		checkNoDoublePut(t)
	})
}

// TestFuzzSeedsDontPanic pins the corpus in the normal test run: every
// seed must decode cleanly or error — never panic, pooled or not — the
// hostile ones must error, and the pooled decoder must never put an
// occurrence twice.
func TestFuzzSeedsDontPanic(t *testing.T) {
	for i, s := range fuzzSeeds(t) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panicked: %v", i, r)
				}
			}()
			exercise(s)
		}()
	}
	checkNoDoublePut(t)
	if fuzzPooled.Pool.Stats().Gets == 0 {
		t.Fatal("no seed decoded into the pool")
	}
}

// The count prefix must not drive allocation: a frame claiming maxBatch
// envelopes but carrying none has to fail after O(1) work, not after
// reserving room for 65536 envelopes.
func TestDecodeBatchNoCountPreallocation(t *testing.T) {
	buf := binary.AppendUvarint([]byte{KindBatch}, uint64(maxBatch))
	allocs := testing.AllocsPerRun(20, func() {
		if err := fuzzCodec.DecodeBatch(buf, discard); err == nil {
			t.Fatal("hostile count accepted")
		}
	})
	// The only allocations allowed are the error values themselves.
	if allocs > 8 {
		t.Fatalf("hostile count allocated %v objects/op", allocs)
	}
}
