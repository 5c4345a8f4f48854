package network

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

func TestDrainDueEmptyAndBufferGrowth(t *testing.T) {
	b := newTestBus(Config{})
	if got := b.DrainDue(100, nil); got != nil {
		t.Fatalf("empty bus drained %v", got)
	}
	for i := 0; i < 10; i++ {
		send(b, 0, "a", "b", i)
	}
	buf := make([]Message, 0, 2) // force growth
	buf = b.DrainDue(0, buf)
	if len(buf) != 10 {
		t.Fatalf("drained %d of 10", len(buf))
	}
	for i, m := range buf {
		if m.Payload.(int) != i {
			t.Fatalf("message %d out of order: %v", i, m.Payload)
		}
	}
}

// ringRoster is the 8-site membership the drain benchmark loads.
var ringRoster = func() *core.Roster {
	ids := make([]core.SiteID, 8)
	for i := range ids {
		ids[i] = core.SiteID(fmt.Sprintf("s%d", i))
	}
	return core.NewRoster(ids)
}()

// loadBus enqueues n messages around the 8-link ring, all due by horizon.
func loadBus(b *Bus, n int) {
	b.SetRoster(ringRoster)
	for i := 0; i < n; i++ {
		b.SendBatchSite(clock.Microticks(i%100), core.Site(i%8), core.Site((i+1)%8), i, 1, 0)
	}
}

// BenchmarkDrainDue measures the batch-drain path the transport stage
// uses: one lock acquisition, one pre-sized batch slice reused across
// iterations.
func BenchmarkDrainDue(b *testing.B) {
	b.ReportAllocs()
	var buf []Message
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bus := NewBus(Config{BaseLatency: 5, Jitter: 20, Seed: 1})
		loadBus(bus, 1024)
		b.StartTimer()
		buf = bus.DrainDue(1_000_000, buf[:0])
		if len(buf) != 1024 {
			b.Fatalf("drained %d", len(buf))
		}
	}
}
