package network

import (
	"fmt"

	"repro/internal/clock"
)

// calendar is the bus's delivery queue: a calendar of FIFO chains, one per
// delivery instant, so that (DeliverAt, send order) — the only order the
// bus owes its caller — holds by construction and a message costs O(1) to
// file and O(1) to hand over at any number in flight.
//
// Every message in flight is a node in one slab, threaded by index either
// onto the chain of its instant, onto the overdue chain, or — once
// delivered — onto the free list, so memory is the high-water mark of
// messages in flight plus the ring.  The ring holds the chains of the
// instants [lo, lo+len(ring)): it has to span the longest delay drawn, not
// the distance between two drains.  lo is the latest instant the bus was
// sent to or drained at; when it moves forward, the chains of the instants
// it leaves behind are spliced, in instant order, onto the overdue chain,
// which therefore stays sorted and is what a drain empties first.
//
// The one thing this cannot do is file a message behind lo, and the one
// call that could ask for it is a send at an instant earlier than lo while
// messages are in flight: push panics on it.  An empty calendar takes any
// instant, and a drain may name an instant earlier than lo — it gets the
// overdue chain's prefix up to that instant.
type calendar struct {
	nodes []node
	// free heads the list of delivered nodes, linked through next.
	free link
	// ring is a power of two long; the chain of instant t is ring[t&mask].
	// It starts out as ring0, so a bus whose delays stay under ringSpan
	// never allocates one.
	ring  []chain
	ring0 [ringSpan]chain
	// occupied counts the non-empty ring chains, so that a pass over the
	// instants lo has left, or a drain, stops once nothing is left to find.
	occupied int
	// overdue holds every message with DeliverAt < lo, in delivery order.
	overdue chain
	lo      clock.Microticks
	// n is the number of messages in flight.
	n int
}

type node struct {
	msg  Message
	next link
}

// link names a slab node by its index plus one, so that the zero link is
// no node and the zero chain is empty.
type link int32

func (q *calendar) at(l link) *node { return &q.nodes[l-1] }

// chain is a FIFO of slab nodes.
type chain struct {
	head, tail link
}

// ringSpan is the ring's initial length: it covers the default link model
// (latency 20, jitter 40) without growing.
const ringSpan = 64

// init readies a zero calendar in place (ring points into it).
func (q *calendar) init() { q.ring = q.ring0[:] }

// push files a message sent at sentAt and due at deliverAt at the tail of
// its delivery instant's chain and returns its slot, the two instants set,
// for the caller to fill in place — every other field of it: a recycled
// slot still holds its last message.
func (q *calendar) push(sentAt, deliverAt clock.Microticks) *Message {
	if sentAt != q.lo {
		q.advance(sentAt)
	}
	if delay := deliverAt - sentAt; delay >= clock.Microticks(len(q.ring)) {
		q.grow(delay)
	}
	i := q.free
	var nd *node
	if i != 0 {
		nd = q.at(i)
		q.free = nd.next
		nd.next = 0
	} else {
		q.nodes = append(q.nodes, node{})
		i = link(len(q.nodes))
		nd = q.at(i)
	}
	c := &q.ring[int(deliverAt)&(len(q.ring)-1)]
	if c.head == 0 {
		c.head = i
		q.occupied++
	} else {
		q.at(c.tail).next = i
	}
	c.tail = i
	q.n++
	nd.msg.SentAt, nd.msg.DeliverAt = sentAt, deliverAt
	return &nd.msg
}

// advance moves lo to the send instant now, splicing the chains of the
// instants in between onto the overdue chain: at most one pass over the
// ring however long the step.
func (q *calendar) advance(now clock.Microticks) {
	if q.n > 0 {
		if now < q.lo {
			panic(fmt.Sprintf("network: send at instant %d with %d messages in flight and the bus already at %d", now, q.n, q.lo))
		}
		mask := len(q.ring) - 1
		end := min(now, q.lo+clock.Microticks(len(q.ring)))
		for t := q.lo; t < end && q.occupied > 0; t++ {
			c := &q.ring[int(t)&mask]
			if c.head == 0 {
				continue
			}
			if q.overdue.head == 0 {
				q.overdue.head = c.head
			} else {
				q.at(q.overdue.tail).next = c.head
			}
			q.overdue.tail = c.tail
			*c = chain{}
			q.occupied--
		}
	}
	q.lo = now
}

// grow doubles the ring until it spans delay.  Every chain moves whole:
// the instants in flight are within one old ring length of each other, so
// no two of them shared a slot.
func (q *calendar) grow(delay clock.Microticks) {
	size := len(q.ring)
	for clock.Microticks(size) <= delay {
		size *= 2
	}
	ring := make([]chain, size)
	for _, c := range q.ring {
		if c.head != 0 {
			ring[int(q.at(c.head).msg.DeliverAt)&(size-1)] = c
		}
	}
	q.ring = ring
}

// drain appends every message due at or before now to buf in (DeliverAt,
// send order) and returns it.
func (q *calendar) drain(now clock.Microticks, buf []Message) []Message {
	if q.n == 0 {
		return buf
	}
	buf = q.take(&q.overdue, now, buf)
	if now < q.lo {
		return buf
	}
	// Everything overdue was due before lo and is gone; what is left lies
	// in the ring, at lo or later.
	mask := len(q.ring) - 1
	end := min(now, q.lo+clock.Microticks(mask))
	for t := q.lo; t <= end && q.occupied > 0; t++ {
		c := &q.ring[int(t)&mask]
		if c.head == 0 {
			continue
		}
		buf = q.take(c, now, buf)
		q.occupied--
	}
	q.lo = now
	return buf
}

// take moves the messages at the head of c that are due at or before now
// to buf and their nodes to the free list.
func (q *calendar) take(c *chain, now clock.Microticks, buf []Message) []Message {
	i := c.head
	for i != 0 {
		nd := q.at(i)
		if nd.msg.DeliverAt > now {
			break
		}
		buf = append(buf, nd.msg)
		nd.msg.Payload = nil // release the payload reference
		next := nd.next
		nd.next = q.free
		q.free = i
		i = next
		q.n--
	}
	c.head = i
	if i == 0 {
		c.tail = 0
	}
	return buf
}

// next returns the earliest delivery instant in flight.
func (q *calendar) next() (clock.Microticks, bool) {
	if q.n == 0 {
		return 0, false
	}
	if i := q.overdue.head; i != 0 {
		return q.at(i).msg.DeliverAt, true
	}
	mask := len(q.ring) - 1
	for t := q.lo; ; t++ {
		if i := q.ring[int(t)&mask].head; i != 0 {
			return q.at(i).msg.DeliverAt, true
		}
	}
}
