// Package network simulates the message-passing substrate of a distributed
// event-detection system: point-to-point links with configurable latency,
// jitter and loss-with-retransmission, driven by the same simulated clock
// as everything else (internal/clock), so every adversarial delivery
// schedule is deterministic and reproducible.
//
// The bus is reliable but unordered: a message is never lost for good
// (loss is modelled as retransmission delay, the abstraction a CEP
// transport needs), but jitter freely reorders messages on a link.  The
// distributed detector (internal/ddetect) restores per-link FIFO order
// from the sequence numbers the bus stamps and uses watermarks for
// cross-site ordering, exactly the problem Section 5 of the paper's
// timestamp algebra exists to solve.
//
// Sites are addressed by their dense index in the core.Roster the bus is
// given at seal (SetRoster); the bus holds no site names beyond that
// roster.  A message may carry more than one application envelope:
// SendBatchSite models one physical frame coalescing a tick's traffic for
// a link (the transport batching of internal/ddetect), and the Stats
// distinguish messages sent from envelopes carried so the coalescing
// ratio is measurable.  SendUnbatchedSite is the differential twin — the
// same traffic as envelope-per-message frames under the same delay
// schedule — used to prove batching is a pure transport optimization.
//
// A Bus is owned by one goroutine (the crank, in ddetect) and takes no
// lock.  It delivers in (DeliverAt, send order) and asks one thing in
// return: while messages are in flight, a send is not at an earlier
// instant than the sends and drains before it (see calendar).
package network

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/clock"
	"repro/internal/core"
)

// Message is one transmission on the bus.
type Message struct {
	// FromSite and ToSite are the dense roster indexes of the sender and
	// the receiver: after seal a site is its index, and the roster the bus
	// was given resolves a name where a report wants one.
	FromSite, ToSite core.Site
	// Seq is the per-(FromSite,ToSite)-link FIFO sequence number, starting
	// at 1.
	Seq uint64
	// SentAt and DeliverAt are reference times.
	SentAt, DeliverAt clock.Microticks
	// Attempts is 1 plus the number of simulated losses.
	Attempts int
	// Payload is the application message (an event occurrence, a
	// heartbeat, or a coalesced multi-envelope batch in ddetect).
	Payload any
}

// Config describes link behaviour.  The zero value is a perfect network:
// zero latency, no jitter, no loss.
type Config struct {
	// BaseLatency is the fixed one-way delay.
	BaseLatency clock.Microticks
	// Jitter adds a uniform random delay in [0, Jitter).  Jitter larger
	// than the inter-message gap reorders messages on a link.
	Jitter clock.Microticks
	// DropRate is the per-transmission loss probability in [0, 1); each
	// loss costs RetransmitDelay before the next attempt.
	DropRate float64
	// RetransmitDelay is the delay added per lost transmission.
	RetransmitDelay clock.Microticks
	// Seed makes the jitter/loss schedule reproducible.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BaseLatency < 0 || c.Jitter < 0 || c.RetransmitDelay < 0 {
		return fmt.Errorf("network: negative delay in config %+v", c)
	}
	if c.DropRate < 0 || c.DropRate >= 1 {
		return fmt.Errorf("network: DropRate %v outside [0, 1)", c.DropRate)
	}
	if c.DropRate > 0 && c.RetransmitDelay == 0 {
		return fmt.Errorf("network: DropRate without RetransmitDelay would be a free drop")
	}
	return nil
}

// Stats counts bus activity.  Sent counts bus messages; Envelopes counts
// the application envelopes they carried (equal when nothing is batched),
// so Envelopes/Sent is the coalescing ratio of the transport layer.
type Stats struct {
	Sent          uint64
	Delivered     uint64
	Retransmitted uint64
	MaxInFlight   int
	// Envelopes is the number of application envelopes carried across
	// all messages (SendBatchSite adds its whole batch to one message).
	Envelopes uint64
	// Batches is the number of messages that coalesced more than one
	// envelope.
	Batches uint64
	// PayloadBytes accumulates serialized payload sizes where the sender
	// reported them (zero for in-memory payloads).
	PayloadBytes uint64
}

// LinkStat is the per-(from,to)-link activity breakdown.
type LinkStat struct {
	From, To  core.SiteID
	Sent      uint64
	Envelopes uint64
	Batches   uint64
	Bytes     uint64
}

// Bus is the deterministic simulated network.  It is not safe for
// concurrent use: one goroutine owns it.
type Bus struct {
	cfg   Config
	rng   *rand.Rand
	queue calendar
	// byFrom is the (from,to) link index, sized by SetRoster: byFrom[from]
	// holds the destinations this site has ever sent to, resolved by a
	// short linear scan (a site's out-degree is the number of sinks it
	// feeds — small by construction, see ddetect's seal).
	byFrom []fromLinks
	roster *core.Roster
	stats  Stats
}

// fromLinks is one site's outbound links: parallel destination-index and
// state slices, appended on first use and scanned linearly.
type fromLinks struct {
	tos []core.Site
	ls  []*linkState
}

// linkState carries one link's FIFO counter and activity counters.
type linkState struct {
	seq       uint64
	sent      uint64
	envelopes uint64
	batches   uint64
	bytes     uint64
}

// NewBus creates a bus; it panics on an invalid configuration (a
// configuration is code, not input).
func NewBus(cfg Config) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &Bus{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	b.queue.init()
	return b
}

// SetRoster attaches the sealed site roster the send methods' indexes
// refer to.  Call it once, before traffic flows (ddetect does so at seal).
func (b *Bus) SetRoster(r *core.Roster) {
	b.roster = r
	b.byFrom = make([]fromLinks, r.Len())
}

// link resolves a link: a short scan of the sender's destination list,
// falling through to creation on first use.
func (b *Bus) link(from, to core.Site) *linkState {
	fl := &b.byFrom[from]
	for i, t := range fl.tos {
		if t == to {
			return fl.ls[i]
		}
	}
	ls := &linkState{}
	fl.tos = append(fl.tos, to)
	fl.ls = append(fl.ls, ls)
	return ls
}

// draw rolls one latency/jitter/loss schedule: the delay until delivery
// and the number of transmission attempts.
func (b *Bus) draw() (delay clock.Microticks, attempts int) {
	delay = b.cfg.BaseLatency
	if b.cfg.Jitter > 0 {
		delay += b.rng.Int63n(b.cfg.Jitter)
	}
	attempts = 1
	for b.cfg.DropRate > 0 && b.rng.Float64() < b.cfg.DropRate {
		delay += b.cfg.RetransmitDelay
		attempts++
	}
	return delay, attempts
}

// file puts one message into the delivery queue, filling the queue's own
// slot in place, and maintains the send-side counters.
func (b *Bus) file(from, to core.Site, seq uint64, now, delay clock.Microticks, attempts int, payload any) *Message {
	m := b.queue.push(now, now+delay)
	m.FromSite, m.ToSite = from, to
	m.Seq = seq
	m.Attempts = attempts
	m.Payload = payload
	b.stats.Sent++
	if n := b.queue.n; n > b.stats.MaxInFlight {
		b.stats.MaxInFlight = n
	}
	return m
}

// SendBatchSite enqueues one message from site from to site to carrying
// envelopes coalesced application envelopes (the payload is their
// container — a slice or an encoded batch frame of bytes bytes; pass
// bytes 0 for in-memory payloads).  The batch consumes exactly one
// latency/jitter/loss draw: it models one physical frame on the link.
func (b *Bus) SendBatchSite(now clock.Microticks, from, to core.Site, payload any, envelopes, bytes int) Message {
	ls := b.link(from, to)
	delay, attempts := b.draw()
	ls.seq++
	m := b.file(from, to, ls.seq, now, delay, attempts, payload)
	ls.sent++
	ls.envelopes += uint64(envelopes)
	ls.bytes += uint64(bytes)
	b.stats.Envelopes += uint64(envelopes)
	b.stats.PayloadBytes += uint64(bytes)
	if envelopes > 1 {
		ls.batches++
		b.stats.Batches++
	}
	if attempts > 1 {
		b.stats.Retransmitted += uint64(attempts - 1)
	}
	return *m
}

// SendUnbatchedSite enqueues n consecutive messages on the (from,to) link
// — payloadAt(i) supplies the i-th payload — all sharing a single
// latency/jitter/loss draw, exactly the schedule SendBatchSite would give
// the same traffic as one coalesced frame.  It is the differential twin
// of SendBatchSite (ddetect's DisableBatching mode): per-envelope
// framing, same deterministic delivery order, so detection results can
// be compared byte for byte.  A []byte payload counts its length as
// payload bytes.  payloadAt must not call back into the Bus.
func (b *Bus) SendUnbatchedSite(now clock.Microticks, from, to core.Site, n int, payloadAt func(int) any) {
	if n <= 0 {
		return
	}
	ls := b.link(from, to)
	delay, attempts := b.draw()
	bytes := 0
	for i := 0; i < n; i++ {
		ls.seq++
		payload := payloadAt(i)
		if frame, ok := payload.([]byte); ok {
			bytes += len(frame)
		}
		b.file(from, to, ls.seq, now, delay, attempts, payload)
	}
	ls.sent += uint64(n)
	ls.envelopes += uint64(n)
	ls.bytes += uint64(bytes)
	b.stats.Envelopes += uint64(n)
	b.stats.PayloadBytes += uint64(bytes)
	if attempts > 1 {
		b.stats.Retransmitted += uint64(attempts - 1)
	}
}

// DrainDue removes every message due at or before now, in deterministic
// (DeliverAt, send order) order, appending to buf (pass the previous
// tick's slice, resliced to zero length, to reuse its backing array).
func (b *Bus) DrainDue(now clock.Microticks, buf []Message) []Message {
	had := len(buf)
	buf = b.queue.drain(now, buf)
	b.stats.Delivered += uint64(len(buf) - had)
	return buf
}

// Pending returns the number of in-flight messages.
func (b *Bus) Pending() int { return b.queue.n }

// NextDeliveryAt returns the earliest pending delivery time.
func (b *Bus) NextDeliveryAt() (clock.Microticks, bool) { return b.queue.next() }

// Stats returns a snapshot of the counters.
func (b *Bus) Stats() Stats { return b.stats }

// LinkStats returns the per-link activity breakdown in (From, To) roster
// order — which is SiteID order — resolving names at snapshot time.
func (b *Bus) LinkStats() []LinkStat {
	var out []LinkStat
	for from := range b.byFrom {
		fl := &b.byFrom[from]
		first := len(out)
		for i, ls := range fl.ls {
			out = append(out, LinkStat{
				From: b.roster.ID(core.Site(from)), To: b.roster.ID(fl.tos[i]),
				Sent: ls.sent, Envelopes: ls.envelopes, Batches: ls.batches, Bytes: ls.bytes,
			})
		}
		// A sender's links are in first-use order; its row block is short.
		row := out[first:]
		sort.Slice(row, func(i, j int) bool { return row[i].To < row[j].To })
	}
	return out
}
