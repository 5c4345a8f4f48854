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

// ringRoster is the 8-site membership the bus benchmarks send around.
var ringRoster = func() *core.Roster {
	ids := make([]core.SiteID, 8)
	for i := range ids {
		ids[i] = core.SiteID(fmt.Sprintf("s%d", i))
	}
	return core.NewRoster(ids)
}()

// busCrank runs the crank's shape — an instant's sends, then its drain,
// the instants one mean delay apart so that each bus keeps about inflight
// messages in flight — over 4096/inflight buses at once, so that a round
// moves 4096 messages at every depth.
type busCrank struct {
	buses    []*Bus
	inflight int
	buf      []Message
	now      clock.Microticks
}

func newBusCrank(inflight int) *busCrank {
	c := &busCrank{buses: make([]*Bus, 4096/inflight), inflight: inflight}
	for i := range c.buses {
		c.buses[i] = NewBus(Config{BaseLatency: 10, Jitter: 40, Seed: int64(i + 1)})
		c.buses[i].SetRoster(ringRoster)
	}
	for i := 0; i < 8; i++ { // slabs, rings and buf reach their steady size
		c.round()
	}
	return c
}

func (c *busCrank) sends() int {
	for _, bus := range c.buses {
		for i := 0; i < c.inflight; i++ {
			bus.SendBatchSite(c.now, core.Site(i%8), core.Site((i+1)%8), nil, 1, 0)
		}
	}
	return len(c.buses) * c.inflight
}

func (c *busCrank) drains() int {
	n := 0
	for _, bus := range c.buses {
		c.buf = bus.DrainDue(c.now, c.buf[:0])
		n += len(c.buf)
	}
	return n
}

func (c *busCrank) round() {
	c.now += 30
	c.sends()
	c.drains()
}

// Once the crank is warm, a round of SendBatchSite and DrainDue calls
// allocates nothing at any depth in flight.
func TestBusCrankAllocs(t *testing.T) {
	for _, inflight := range []int{16, 256, 4096} {
		c := newBusCrank(inflight)
		if n := testing.AllocsPerRun(20, c.round); n != 0 {
			t.Errorf("inflight=%d: %v allocs per round of 4096 sends and drains, want 0", inflight, n)
		}
	}
}

// benchBus times one of busCrank's two phases; the timer is switched
// equally often at every depth.  ns/msg staying flat from 16 to 4096 in
// flight is the point.
func benchBus(b *testing.B, inflight int, timeSends bool) {
	b.ReportAllocs()
	b.StopTimer()
	c := newBusCrank(inflight)
	msgs := 0
	phase := func(run func() int, timed bool) {
		if !timed {
			run()
			return
		}
		b.StartTimer()
		n := run()
		b.StopTimer()
		msgs += n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.now += 30
		phase(c.sends, timeSends)
		phase(c.drains, !timeSends)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}

// BenchmarkDrainDue measures the batch-drain path the transport stage
// uses; one op is a round of 4096 messages.
func BenchmarkDrainDue(b *testing.B) {
	for _, inflight := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) { benchBus(b, inflight, false) })
	}
}

// BenchmarkBusSend measures the send path under the same schedule.
func BenchmarkBusSend(b *testing.B) {
	for _, inflight := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) { benchBus(b, inflight, true) })
	}
}
