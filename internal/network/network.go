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
package network

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

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

// Bus is the deterministic simulated network.  It is safe for concurrent
// use, though the simulation driver typically owns it from one goroutine.
type Bus struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	queue   deliveryQueue
	pushSeq uint64
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
	return &Bus{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetRoster attaches the sealed site roster the send methods' indexes
// refer to.  Call it once, before traffic flows (ddetect does so at seal).
func (b *Bus) SetRoster(r *core.Roster) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.roster = r
	b.byFrom = make([]fromLinks, r.Len())
}

// link resolves a link: a short scan of the sender's destination list,
// falling through to creation on first use.  Caller holds b.mu.
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
// and the number of transmission attempts.  Caller holds b.mu.
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

// enqueue pushes one message and maintains the send-side counters.
// Caller holds b.mu.
func (b *Bus) enqueue(m Message) {
	b.pushSeq++
	b.queue.push(queued{msg: m, order: b.pushSeq})
	b.stats.Sent++
	if n := len(b.queue); n > b.stats.MaxInFlight {
		b.stats.MaxInFlight = n
	}
}

// SendBatchSite enqueues one message from site from to site to carrying
// envelopes coalesced application envelopes (the payload is their
// container — a slice or an encoded batch frame of bytes bytes; pass
// bytes 0 for in-memory payloads).  The batch consumes exactly one
// latency/jitter/loss draw: it models one physical frame on the link.
//
//sentinel:hotpath
func (b *Bus) SendBatchSite(now clock.Microticks, from, to core.Site, payload any, envelopes, bytes int) Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	ls := b.link(from, to)
	delay, attempts := b.draw()
	ls.seq++
	m := Message{
		FromSite:  from,
		ToSite:    to,
		Seq:       ls.seq,
		SentAt:    now,
		DeliverAt: now + delay,
		Attempts:  attempts,
		Payload:   payload,
	}
	b.enqueue(m)
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
	return m
}

// SendUnbatchedSite enqueues n consecutive messages on the (from,to) link
// — payloadAt(i) supplies the i-th payload — all sharing a single
// latency/jitter/loss draw, exactly the schedule SendBatchSite would give
// the same traffic as one coalesced frame.  It is the differential twin
// of SendBatchSite (ddetect's DisableBatching mode): per-envelope
// framing, same deterministic delivery order, so detection results can
// be compared byte for byte.  A []byte payload counts its length as
// payload bytes.  payloadAt is invoked with the bus lock held and must
// not call back into the Bus.
//
//sentinel:hotpath
func (b *Bus) SendUnbatchedSite(now clock.Microticks, from, to core.Site, n int, payloadAt func(int) any) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ls := b.link(from, to)
	delay, attempts := b.draw()
	bytes := 0
	for i := 0; i < n; i++ {
		ls.seq++
		payload := payloadAt(i)
		if frame, ok := payload.([]byte); ok {
			bytes += len(frame)
		}
		b.enqueue(Message{
			FromSite:  from,
			ToSite:    to,
			Seq:       ls.seq,
			SentAt:    now,
			DeliverAt: now + delay,
			Attempts:  attempts,
			Payload:   payload,
		})
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

// DrainDue pops every message due at or before now, in deterministic
// (DeliverAt, send order) order, appending to buf (pass the previous
// tick's slice, resliced to zero length, to reuse its backing array).
// This is the batch form the transport stage drains the bus with: one
// lock acquisition and one pre-sized append run per tick instead of a
// lock round trip per message.
//
//sentinel:hotpath
func (b *Bus) DrainDue(now clock.Microticks, buf []Message) []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Pre-size: count the due messages (a linear scan over the heap
	// slice, no allocation) and grow buf once.
	due := 0
	for i := range b.queue {
		if b.queue[i].msg.DeliverAt <= now {
			due++
		}
	}
	if due == 0 {
		return buf
	}
	if free := cap(buf) - len(buf); free < due {
		//lint:allow hotalloc — amortized growth of the caller-owned reuse buffer; steady state reuses the grown capacity tick after tick
		grown := make([]Message, len(buf), len(buf)+due)
		copy(grown, buf)
		buf = grown
	}
	for len(b.queue) > 0 && b.queue[0].msg.DeliverAt <= now {
		buf = append(buf, b.queue.pop().msg)
	}
	b.stats.Delivered += uint64(due)
	return buf
}

// Pending returns the number of in-flight messages.
func (b *Bus) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// NextDeliveryAt returns the earliest pending delivery time.
func (b *Bus) NextDeliveryAt() (clock.Microticks, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return 0, false
	}
	return b.queue[0].msg.DeliverAt, true
}

// Stats returns a snapshot of the counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// LinkStats returns the per-link activity breakdown in (From, To) roster
// order — which is SiteID order — resolving names at snapshot time.
func (b *Bus) LinkStats() []LinkStat {
	b.mu.Lock()
	defer b.mu.Unlock()
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

type queued struct {
	msg   Message
	order uint64
}

func (q queued) less(u queued) bool {
	if q.msg.DeliverAt != u.msg.DeliverAt {
		return q.msg.DeliverAt < u.msg.DeliverAt
	}
	return q.order < u.order
}

// deliveryQueue is a value-based binary min-heap on (DeliverAt, send
// order).  Like ddetect's readyQueue it deliberately avoids
// container/heap: entries live by value in one backing array (no per-item
// allocation) and push/pop sift directly (no interface boxing on the
// per-message hot path).
type deliveryQueue []queued

func (q *deliveryQueue) push(it queued) {
	*q = append(*q, it)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *deliveryQueue) pop() queued {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queued{} // release the payload reference
	h = h[:n]
	*q = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			least = r
		}
		if !h[least].less(h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
