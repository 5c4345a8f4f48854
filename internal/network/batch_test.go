package network

import (
	"reflect"
	"testing"
)

func TestSendBatchCountsEnvelopes(t *testing.T) {
	b := newTestBus(Config{})
	m := b.SendBatchSite(0, site("a"), site("b"), []int{1, 2, 3}, 3, 120)
	if m.Seq != 1 {
		t.Fatalf("Seq = %d, want 1", m.Seq)
	}
	send(b, 0, "a", "b", nil) // singles share the same link seq space
	st := b.Stats()
	if st.Sent != 2 || st.Envelopes != 4 || st.Batches != 1 || st.PayloadBytes != 120 {
		t.Fatalf("stats = %+v", st)
	}
	links := b.LinkStats()
	if len(links) != 1 {
		t.Fatalf("links = %+v", links)
	}
	want := LinkStat{From: "a", To: "b", Sent: 2, Envelopes: 4, Batches: 1, Bytes: 120}
	if links[0] != want {
		t.Fatalf("link stat = %+v, want %+v", links[0], want)
	}
}

func TestSendBatchSingleEnvelopeIsNotABatch(t *testing.T) {
	b := newTestBus(Config{})
	b.SendBatchSite(0, site("a"), site("b"), []int{1}, 1, 0)
	if st := b.Stats(); st.Batches != 0 || st.Envelopes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// SendUnbatchedSite must give its n messages the exact delivery schedule
// SendBatchSite would give the same traffic as one frame: one delay/loss
// draw, shared DeliverAt and Attempts, consecutive link seqs.  ddetect's
// DisableBatching differential mode depends on this.
func TestSendUnbatchedSharesOneDraw(t *testing.T) {
	cfg := Config{BaseLatency: 5, Jitter: 50, DropRate: 0.3, RetransmitDelay: 40, Seed: 7}

	batched := newTestBus(cfg)
	bm := batched.SendBatchSite(100, site("a"), site("b"), "frame", 3, 0)
	after := send(batched, 100, "a", "c", nil) // next draw on a fresh bus state

	un := newTestBus(cfg)
	un.SendUnbatchedSite(100, site("a"), site("b"), 3, func(i int) any { return i })
	msgs := un.DrainDue(1<<40, nil)
	if len(msgs) != 3 {
		t.Fatalf("delivered %d, want 3", len(msgs))
	}
	for i, m := range msgs {
		if m.Seq != uint64(i+1) {
			t.Errorf("msg %d Seq = %d", i, m.Seq)
		}
		if m.DeliverAt != bm.DeliverAt || m.Attempts != bm.Attempts {
			t.Errorf("msg %d schedule (%d, %d) diverged from batch (%d, %d)",
				i, m.DeliverAt, m.Attempts, bm.DeliverAt, bm.Attempts)
		}
		if m.Payload.(int) != i {
			t.Errorf("msg %d payload = %v", i, m.Payload)
		}
	}
	// Both modes consumed exactly one draw: the NEXT send sees the same
	// RNG state.
	unAfter := send(un, 100, "a", "c", nil)
	if unAfter.DeliverAt != after.DeliverAt || unAfter.Attempts != after.Attempts {
		t.Fatalf("post-flush draw diverged: (%d, %d) vs (%d, %d)",
			unAfter.DeliverAt, unAfter.Attempts, after.DeliverAt, after.Attempts)
	}

	if st := un.Stats(); st.Sent != 4 || st.Envelopes != 4 || st.Batches != 0 {
		t.Fatalf("unbatched stats = %+v", st)
	}
	if st := batched.Stats(); st.Sent != 2 || st.Envelopes != 4 || st.Batches != 1 {
		t.Fatalf("batched stats = %+v", st)
	}
}

func TestSendUnbatchedZero(t *testing.T) {
	b := newTestBus(Config{Jitter: 10, Seed: 1})
	b.SendUnbatchedSite(0, site("a"), site("b"), 0, func(int) any { return nil })
	if st := b.Stats(); st.Sent != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// No draw consumed either: schedule matches a fresh bus.
	fresh := newTestBus(Config{Jitter: 10, Seed: 1})
	if send(b, 0, "a", "b", nil).DeliverAt != send(fresh, 0, "a", "b", nil).DeliverAt {
		t.Fatalf("SendUnbatchedSite(n=0) consumed an RNG draw")
	}
}

// An unbatched run of serialized frames must account their bytes the way
// a batch accounts its frame: the bus total and the link row both carry
// the sum of the single-frame lengths.  In-memory payloads count nothing.
func TestSendUnbatchedCountsFrameBytes(t *testing.T) {
	b := newTestBus(Config{})
	frames := [][]byte{make([]byte, 7), make([]byte, 19), make([]byte, 1)}
	b.SendUnbatchedSite(0, site("a"), site("b"), len(frames), func(i int) any { return frames[i] })
	b.SendUnbatchedSite(0, site("a"), site("b"), 2, func(i int) any { return i })
	if st := b.Stats(); st.PayloadBytes != 27 || st.Sent != 5 || st.Envelopes != 5 {
		t.Fatalf("stats = %+v, want 27 payload bytes over 5 single-envelope messages", st)
	}
	want := LinkStat{From: "a", To: "b", Sent: 5, Envelopes: 5, Bytes: 27}
	if links := b.LinkStats(); len(links) != 1 || links[0] != want {
		t.Fatalf("link stats = %+v, want %+v", links, want)
	}
}

func TestLinkStatsSorted(t *testing.T) {
	b := newTestBus(Config{})
	send(b, 0, "c", "a", nil)
	send(b, 0, "a", "b", nil)
	send(b, 0, "a", "a2", nil)
	var got [][2]string
	for _, ls := range b.LinkStats() {
		got = append(got, [2]string{string(ls.From), string(ls.To)})
	}
	want := [][2]string{{"a", "a2"}, {"a", "b"}, {"c", "a"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LinkStats order = %v, want %v", got, want)
	}
}

func BenchmarkBusSendBatch(b *testing.B) {
	bus := newTestBus(Config{BaseLatency: 10, Jitter: 40, Seed: 1})
	payload := struct{ x int }{1}
	a, dst := site("a"), site("b")
	var drain []Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.SendBatchSite(int64(i), a, dst, payload, 8, 256)
		if i%1024 == 1023 {
			b.StopTimer()
			drain = bus.DrainDue(int64(i)+1024, drain[:0])
			b.StartTimer()
		}
	}
}
