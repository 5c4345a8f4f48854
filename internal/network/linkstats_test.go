package network

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// meshTraffic drives a deterministic mix of single sends, coalesced
// batches and unbatched runs over a 3-site mesh and returns the bus
// send-side expectation per link.
func meshTraffic(b *Bus) map[[2]core.SiteID]LinkStat {
	sites := []core.SiteID{"a", "b", "c"}
	want := map[[2]core.SiteID]LinkStat{}
	acc := func(from, to core.SiteID, sent, envs, batches, bytes uint64) {
		k := [2]core.SiteID{from, to}
		ls := want[k]
		ls.From, ls.To = from, to
		ls.Sent += sent
		ls.Envelopes += envs
		ls.Batches += batches
		ls.Bytes += bytes
		want[k] = ls
	}
	now := clock.Microticks(0)
	for round := 0; round < 20; round++ {
		now += 10
		for i, from := range sites {
			to := sites[(i+1)%len(sites)]
			send(b, now, from, to, round)
			acc(from, to, 1, 1, 0, 0)
			if round%2 == 0 {
				back := sites[(i+2)%len(sites)]
				b.SendBatchSite(now, site(from), site(back), []int{round, round}, 2, 64)
				acc(from, back, 1, 2, 1, 64)
			}
			if round%5 == 0 {
				b.SendUnbatchedSite(now, site(from), site(to), 3, func(j int) any { return j })
				acc(from, to, 3, 3, 0, 0)
			}
		}
	}
	return want
}

// TestLinkStatsUnderLossAndReorder pins that loss and reorder are
// delivery-side phenomena: the per-link send accounting (sent, envelopes,
// batches, payload bytes) is exact under heavy jitter and drop, the
// snapshot stays (From, To)-sorted, and the per-link rows sum to the
// global Stats counters.
func TestLinkStatsUnderLossAndReorder(t *testing.T) {
	b := newTestBus(Config{BaseLatency: 5, Jitter: 50, DropRate: 0.3, RetransmitDelay: 40, Seed: 8})
	want := meshTraffic(b)

	got := b.LinkStats()
	if len(got) != len(want) {
		t.Fatalf("got %d links, want %d", len(got), len(want))
	}
	var sum Stats
	for i, ls := range got {
		if i > 0 {
			prev := got[i-1]
			if prev.From > ls.From || (prev.From == ls.From && prev.To >= ls.To) {
				t.Fatalf("LinkStats not sorted by (From, To): %v before %v", prev, ls)
			}
		}
		if w := want[[2]core.SiteID{ls.From, ls.To}]; ls != w {
			t.Errorf("link %s->%s = %+v, want %+v (adversity must not leak into send accounting)",
				ls.From, ls.To, ls, w)
		}
		sum.Sent += ls.Sent
		sum.Envelopes += ls.Envelopes
		sum.Batches += ls.Batches
		sum.PayloadBytes += ls.Bytes
	}

	st := b.Stats()
	if st.Retransmitted == 0 {
		t.Fatal("30% drop never retransmitted — adversity misconfigured, test is vacuous")
	}
	if sum.Sent != st.Sent || sum.Envelopes != st.Envelopes ||
		sum.Batches != st.Batches || sum.PayloadBytes != st.PayloadBytes {
		t.Errorf("per-link sums %+v disagree with bus totals %+v", sum, st)
	}

	// Draining to quiescence delivers every message exactly once despite
	// the scrambled schedule.
	delivered := 0
	for b.Pending() > 0 {
		at, _ := b.NextDeliveryAt()
		due := b.DrainDue(at, nil)
		for _, m := range due {
			if m.SentAt > at {
				t.Errorf("message delivered before it was sent: %+v", m)
			}
		}
		delivered += len(due)
	}
	if uint64(delivered) != st.Sent {
		t.Fatalf("delivered %d of %d sent messages", delivered, st.Sent)
	}
	if b.Stats().Delivered != st.Sent {
		t.Fatalf("Delivered counter %d, want %d", b.Stats().Delivered, st.Sent)
	}
}

// TestLinkStatsAdversityInvariant pins the stronger differential claim:
// the entire LinkStats snapshot is byte-identical between a perfect
// network and a jittery, lossy one fed the same traffic — the delivery
// schedule owns delay and retransmission, the links own accounting.
func TestLinkStatsAdversityInvariant(t *testing.T) {
	perfect := newTestBus(Config{})
	adverse := newTestBus(Config{BaseLatency: 20, Jitter: 200, DropRate: 0.25, RetransmitDelay: 75, Seed: 3})
	meshTraffic(perfect)
	meshTraffic(adverse)
	a, p := adverse.LinkStats(), perfect.LinkStats()
	if !reflect.DeepEqual(a, p) {
		t.Fatalf("link accounting diverges under adversity:\nperfect: %+v\nadverse: %+v", p, a)
	}
	if adverse.Stats().Retransmitted == 0 {
		t.Fatal("adverse bus never retransmitted — comparison is vacuous")
	}
}

// TestLinkStatsReorderWithinLink pins that jitter beyond the send gap
// reorders deliveries on a single link while the link's FIFO sequence
// numbers stay monotone in send order — the property ddetect's reorder
// buffer rebuilds FIFO from.
func TestLinkStatsReorderWithinLink(t *testing.T) {
	b := newTestBus(Config{BaseLatency: 1, Jitter: 500, Seed: 11})
	const n = 40
	for i := 0; i < n; i++ {
		send(b, clock.Microticks(i*5), "a", "b", i)
	}
	var seqs []uint64
	for b.Pending() > 0 {
		at, _ := b.NextDeliveryAt()
		for _, m := range b.DrainDue(at, nil) {
			seqs = append(seqs, m.Seq)
		}
	}
	if len(seqs) != n {
		t.Fatalf("delivered %d of %d", len(seqs), n)
	}
	inOrder := true
	seen := map[uint64]bool{}
	for i, s := range seqs {
		if seen[s] {
			t.Fatalf("sequence %d delivered twice", s)
		}
		seen[s] = true
		if i > 0 && seqs[i-1] > s {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("jitter 100x the send gap never reordered the link: %v", seqs)
	}
	ls := b.LinkStats()
	if len(ls) != 1 || ls[0].Sent != n || ls[0].Envelopes != n || ls[0].Batches != 0 {
		t.Fatalf("link stats = %+v, want one a->b link with %d singles", ls, n)
	}
	if got := fmt.Sprintf("%s->%s", ls[0].From, ls[0].To); got != "a->b" {
		t.Fatalf("link identity = %s", got)
	}
}
