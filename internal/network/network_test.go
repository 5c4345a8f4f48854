package network

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
)

// testRoster is the membership every test bus is sealed over; its index
// order is the SiteID order a < a2 < b < c.
var testRoster = core.NewRoster([]core.SiteID{"a", "a2", "b", "c"})

func newTestBus(cfg Config) *Bus {
	b := NewBus(cfg)
	b.SetRoster(testRoster)
	return b
}

func site(id core.SiteID) core.Site { return testRoster.MustSite(id) }

// send puts one single-envelope message on the (from,to) link.
func send(b *Bus, now clock.Microticks, from, to core.SiteID, payload any) Message {
	return b.SendBatchSite(now, site(from), site(to), payload, 1, 0)
}

func TestPerfectNetworkDeliversInOrder(t *testing.T) {
	b := newTestBus(Config{})
	for i := 0; i < 5; i++ {
		send(b, int64(i), "a", "b", i)
	}
	var got []int
	for _, m := range b.DrainDue(100, nil) {
		got = append(got, m.Payload.(int))
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestLinkSequenceNumbers(t *testing.T) {
	b := newTestBus(Config{})
	m1 := send(b, 0, "a", "b", nil)
	m2 := send(b, 0, "a", "b", nil)
	m3 := send(b, 0, "a", "c", nil)
	m4 := send(b, 0, "c", "b", nil)
	if m1.Seq != 1 || m2.Seq != 2 {
		t.Errorf("same-link seqs = %d, %d", m1.Seq, m2.Seq)
	}
	if m3.Seq != 1 || m4.Seq != 1 {
		t.Errorf("distinct links must have independent seqs: %d, %d", m3.Seq, m4.Seq)
	}
	if m4.FromSite != site("c") || m4.ToSite != site("b") {
		t.Errorf("message addressed %d->%d, want %d->%d", m4.FromSite, m4.ToSite, site("c"), site("b"))
	}
}

func TestLatencyDefersDelivery(t *testing.T) {
	b := newTestBus(Config{BaseLatency: 50})
	send(b, 10, "a", "b", "x")
	if n := len(b.DrainDue(59, nil)); n != 0 {
		t.Fatalf("delivered before due")
	}
	if due, ok := b.NextDeliveryAt(); !ok || due != 60 {
		t.Fatalf("NextDeliveryAt = %d, %v", due, ok)
	}
	if n := len(b.DrainDue(60, nil)); n != 1 {
		t.Fatalf("due message not delivered")
	}
	if _, ok := b.NextDeliveryAt(); ok {
		t.Fatalf("queue should be empty")
	}
}

func TestJitterReorders(t *testing.T) {
	b := newTestBus(Config{BaseLatency: 10, Jitter: 100, Seed: 1})
	const n = 50
	for i := 0; i < n; i++ {
		send(b, int64(i), "a", "b", i)
	}
	var got []int
	for _, m := range b.DrainDue(1_000, nil) {
		got = append(got, m.Payload.(int))
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("jitter 10x the gap should reorder at least one pair")
	}
}

func TestDropsRetransmit(t *testing.T) {
	b := newTestBus(Config{DropRate: 0.5, RetransmitDelay: 100, Seed: 3})
	const n = 100
	for i := 0; i < n; i++ {
		send(b, 0, "a", "b", i)
	}
	delivered := len(b.DrainDue(1_000_000, nil))
	if delivered != n {
		t.Fatalf("reliable delivery broken: %d of %d", delivered, n)
	}
	st := b.Stats()
	if st.Retransmitted == 0 {
		t.Fatalf("no retransmissions at 50%% drop rate")
	}
	if st.Sent != n || st.Delivered != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAttemptsRecorded(t *testing.T) {
	b := newTestBus(Config{DropRate: 0.9, RetransmitDelay: 10, Seed: 12})
	m := send(b, 0, "a", "b", nil)
	if m.Attempts < 1 {
		t.Fatalf("Attempts = %d", m.Attempts)
	}
	if m.DeliverAt != int64(m.Attempts-1)*10 {
		t.Fatalf("delay %d inconsistent with %d attempts", m.DeliverAt, m.Attempts)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	mk := func() []int64 {
		b := newTestBus(Config{BaseLatency: 5, Jitter: 50, DropRate: 0.2, RetransmitDelay: 30, Seed: 42})
		var due []int64
		for i := 0; i < 20; i++ {
			due = append(due, send(b, int64(i), "a", "b", nil).DeliverAt)
		}
		return due
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{BaseLatency: -1},
		{Jitter: -1},
		{DropRate: -0.1},
		{DropRate: 1.0, RetransmitDelay: 1},
		{DropRate: 0.5}, // no retransmit delay
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestNewBusPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewBus must panic on invalid config")
		}
	}()
	NewBus(Config{DropRate: -1})
}

func TestMaxInFlightTracked(t *testing.T) {
	b := newTestBus(Config{BaseLatency: 100})
	for i := 0; i < 7; i++ {
		send(b, 0, "a", "b", nil)
	}
	if st := b.Stats(); st.MaxInFlight != 7 {
		t.Fatalf("MaxInFlight = %d, want 7", st.MaxInFlight)
	}
	if b.Pending() != 7 {
		t.Fatalf("Pending = %d", b.Pending())
	}
}
