package network

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
)

// refQueue is the specification the calendar is held to: everything sent,
// in send order, and a drain that is a stable sort on DeliverAt of what is
// due.
type refQueue struct {
	pending []Message
}

func (r *refQueue) drain(now clock.Microticks) []Message {
	var due, rest []Message
	for _, m := range r.pending {
		if m.DeliverAt <= now {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	r.pending = rest
	slices.SortStableFunc(due, func(a, b Message) int { return cmp.Compare(a.DeliverAt, b.DeliverAt) })
	return due
}

// checkedBus pairs a bus with the reference and compares every drain.
type checkedBus struct {
	t    *testing.T
	bus  *Bus
	ref  refQueue
	sent int
}

func (c *checkedBus) send(now clock.Microticks) {
	m := send(c.bus, now, "a", "b", c.sent)
	c.sent++
	c.ref.pending = append(c.ref.pending, m)
}

func (c *checkedBus) drain(now clock.Microticks) {
	c.t.Helper()
	got, want := c.bus.DrainDue(now, nil), c.ref.drain(now)
	if len(got) != len(want) {
		c.t.Fatalf("drain at %d delivered %d messages, want %d", now, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			c.t.Fatalf("drain at %d, position %d: got %+v, want %+v", now, i, got[i], want[i])
		}
	}
	if c.bus.Pending() != len(c.ref.pending) {
		c.t.Fatalf("after drain at %d: %d pending, want %d", now, c.bus.Pending(), len(c.ref.pending))
	}
	next, ok := c.bus.NextDeliveryAt()
	if ok != (len(c.ref.pending) > 0) {
		c.t.Fatalf("after drain at %d: NextDeliveryAt ok = %v with %d pending", now, ok, len(c.ref.pending))
	}
	for _, m := range c.ref.pending {
		if m.DeliverAt < next {
			c.t.Fatalf("after drain at %d: NextDeliveryAt %d, but %+v is pending", now, next, m)
		}
	}
}

// The calendar must agree with a straightforward sort on the (DeliverAt,
// send order) key across an adversarial schedule.
func TestDeliveryQueueOrdering(t *testing.T) {
	c := &checkedBus{t: t, bus: newTestBus(Config{BaseLatency: 1, Jitter: 200, DropRate: 0.25, RetransmitDelay: 50, Seed: 99})}
	for i := 0; i < 500; i++ {
		c.send(int64(i))
	}
	c.drain(1 << 40)
	if c.bus.Stats().Delivered != 500 {
		t.Fatalf("delivered %d, want 500", c.bus.Stats().Delivered)
	}
}

// TestCalendarAgainstReference drives random schedules shaped like the
// crank's — send, drain, send again at the same instant, step — and like
// the tests' (a drain behind the last send), and compares every drain with
// the reference.
func TestCalendarAgainstReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// step draws the distance to the next instant.
		step func(r *rand.Rand) clock.Microticks
		// wantRing is the ring length the schedule must end with; 0 means
		// it must have grown.
		wantRing int
	}{
		{
			name: "retransmit chains grow the ring",
			cfg:  Config{BaseLatency: 5, Jitter: 50, DropRate: 0.3, RetransmitDelay: 40},
			step: func(r *rand.Rand) clock.Microticks { return 1 + r.Int63n(30) },
		},
		{
			name:     "steps longer than the ring",
			cfg:      Config{BaseLatency: 20, Jitter: 40},
			wantRing: ringSpan,
			step: func(r *rand.Rand) clock.Microticks {
				switch r.Intn(4) {
				case 0:
					return 10_000_000
				case 1:
					return ringSpan + r.Int63n(3)
				}
				return 1 + r.Int63n(100)
			},
		},
		{
			name:     "zero-latency sends behind the drain of their instant",
			cfg:      Config{Jitter: 8},
			wantRing: ringSpan,
			step:     func(r *rand.Rand) clock.Microticks { return r.Int63n(4) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				cfg := tc.cfg
				cfg.Seed = seed
				c := &checkedBus{t: t, bus: newTestBus(cfg)}
				r := rand.New(rand.NewSource(seed))
				now := clock.Microticks(0)
				for round := 0; round < 300; round++ {
					now += tc.step(r)
					for k := r.Intn(6); k > 0; k-- {
						c.send(now)
					}
					switch r.Intn(8) {
					case 0: // no drain this instant
					case 1: // a drain behind the last send
						c.drain(now - r.Int63n(50))
					default:
						c.drain(now)
						// The publish-stage forward: sent after the drain of
						// its instant, due first at the next one.
						for k := r.Intn(3); k > 0; k-- {
							c.send(now)
						}
					}
				}
				c.drain(now + 1<<40)
				if st := c.bus.Stats(); st.Delivered != st.Sent || st.Sent != uint64(c.sent) {
					t.Fatalf("seed %d: sent %d, stats %+v", seed, c.sent, st)
				}
				ring := len(c.bus.queue.ring)
				if tc.wantRing != 0 && ring != tc.wantRing {
					t.Fatalf("seed %d: ring is %d long, want %d", seed, ring, tc.wantRing)
				}
				if tc.wantRing == 0 && ring <= ringSpan {
					t.Fatalf("seed %d: ring never grew — the schedule is vacuous", seed)
				}
				if slab := len(c.bus.queue.nodes); slab != c.bus.Stats().MaxInFlight {
					t.Fatalf("seed %d: slab holds %d nodes, %d were in flight at most", seed, slab, c.bus.Stats().MaxInFlight)
				}
			}
		})
	}
}

// TestCalendarInstantsContract pins the one thing the bus asks of its
// caller: an empty bus takes any instant, a busy one no earlier instant
// than it has already seen.
func TestCalendarInstantsContract(t *testing.T) {
	c := &checkedBus{t: t, bus: newTestBus(Config{BaseLatency: 50})}
	c.send(1_000)
	c.send(1_000)
	c.drain(2_000)
	// Empty: back to an earlier instant, as benchmark/probes.go does.
	c.send(3)
	c.send(7)
	c.drain(53)
	c.drain(57)

	c.send(100)
	defer func() {
		if recover() == nil {
			t.Fatal("a send at an earlier instant with a message in flight must panic")
		}
	}()
	c.send(99)
}
