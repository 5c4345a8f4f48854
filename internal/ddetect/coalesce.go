package ddetect

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/wire"
)

// linkCoalescer accumulates the envelopes bound for each (from,to) link
// and hands them to the bus in per-tick batches: one Message — one
// latency/jitter/loss draw, one link sequence number, one wire frame when
// serializing — per link per flush, instead of one per (occurrence,
// destination).  The ingest and publish stages are its only producers
// (Site.Raise between ticks, heartbeats and hierarchical forwards during
// their Ticks), and each flushes at the end of its Tick, so everything a
// tick emits onto a link travels as one frame.
//
// Batching is a pure transport optimization: per-link envelope order is
// exactly the per-link send order the unbatched system produced, the
// receiving reorderer unpacks a batch back into individual envelopes
// before FIFO restore, and — the property TestBatchingDeterminism pins —
// the delivery schedule is byte-identical with batching disabled, because
// the differential mode (Config.DisableBatching → Bus.SendUnbatchedSite)
// consumes the same one draw per link flush.
//
// All methods run on the crank goroutine (stages are single-threaded and
// Raise is a between-ticks call), so the free lists need no locking.  The
// flush methods are the only code in this package allowed to call the
// Bus's send methods — enforced by the stagefx analyzer.
type linkCoalescer struct {
	sys *System
	// byLink indexes the accumulating batches by packed (from,to) roster
	// index pair — an integer-keyed map, so the per-envelope add hashes
	// two int32s instead of two strings.
	byLink map[uint64]*linkBatch
	// order lists the links with pending envelopes in first-use order —
	// deterministic, since every add happens on the crank goroutine —
	// and is the flush iteration order (the byLink map is lookup-only:
	// map iteration order must never reach the bus).
	order []*linkBatch

	// freeEnvs recycles flushed batch slices for in-memory payloads; the
	// transport stage returns each slice after unpacking it.  freeRuns
	// recycles the envRun boxes those slices ship in, and freeFrames does
	// the same for serialized batch frames and their buffers.
	freeEnvs   [][]wire.Envelope
	freeRuns   []*envRun
	freeFrames []*frame
}

// envRun is the bus payload of an in-memory coalesced batch.  Boxing the
// run as a pointer costs nothing per flush; boxing the []wire.Envelope slice
// header directly into the Message's any field copied it to the heap on
// every send — the single largest allocation site of the 16-site
// end-to-end profile before this container existed.
type envRun struct {
	envs []wire.Envelope
}

// frame is the bus payload of a serialized batch, boxed as a pointer for
// the reason envRun is: a []byte header in the Message's any field is one
// heap copy per send.  The box and its buffer are recycled together.
type frame struct {
	buf []byte
}

// linkBatch is one link's accumulating envelope run, addressed by dense
// roster indexes.
type linkBatch struct {
	from, to core.Site
	envs     []wire.Envelope
}

func newLinkCoalescer(sys *System) *linkCoalescer {
	return &linkCoalescer{sys: sys, byLink: make(map[uint64]*linkBatch)}
}

// packLink packs a (from,to) roster index pair into one map key.
func packLink(from, to core.Site) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// add queues one envelope for the (from,to) link, to be sent at the next
// flush.  An event envelope's queued pointer is a stored reference: add is
// the single choke point through which every remote delivery passes —
// raises, heartbeat-era forwards, hierarchical composite forwards — so the
// transport's Retain lives here and is dropped wherever the envelope's
// journey ends (the detect stage after dispatch for in-memory payloads,
// the serializing flush after encoding).
//
//sentinel:hotpath
func (c *linkCoalescer) add(from, to core.Site, env wire.Envelope) {
	if env.Kind == wire.KindEvent {
		env.Occ.Retain()
	}
	k := packLink(from, to)
	lb := c.byLink[k]
	if lb == nil {
		lb = &linkBatch{from: from, to: to}
		c.byLink[k] = lb
	}
	if len(lb.envs) == 0 {
		if n := len(c.freeEnvs); n > 0 {
			lb.envs, c.freeEnvs = c.freeEnvs[n-1], c.freeEnvs[:n-1]
		}
		c.order = append(c.order, lb)
	}
	lb.envs = append(lb.envs, env)
}

// pending reports whether any link has unflushed envelopes.
func (c *linkCoalescer) pendingLinks() int { return len(c.order) }

// flush hands every pending link batch to the bus, in deterministic
// first-use link order, consuming exactly one delay/loss draw per link.
// It runs single-threaded on the crank goroutine (end of the ingest and
// publish Ticks); the stagefx analyzer recognizes linkCoalescer methods
// as the designated Bus senders.
func (c *linkCoalescer) flush(now clock.Microticks) {
	if len(c.order) == 0 {
		return
	}
	sys := c.sys
	for _, lb := range c.order {
		envs := lb.envs
		lb.envs = nil
		tr := sys.tr
		var from, to core.SiteID
		if tr != nil {
			from, to = sys.roster.ID(lb.from), sys.roster.ID(lb.to)
		}
		for _, env := range envs {
			if env.Kind != wire.KindEvent {
				continue
			}
			// The flush instant is the moment the occurrence actually hits
			// the bus: the raise→send latency mark and — when tracing, for
			// sampled lineages — one send span per event envelope
			// (heartbeats are perpetual noise and go unattributed).  Span
			// fields stay strings, so traces diff against old captures.
			sys.mark(env.Occ, event.MarkSend, now)
			if tr != nil && env.Occ.Sample != event.SampleDrop {
				tr.Emit(obs.SpanEvent{ID: tr.ID(env.Occ, env.Occ.Gen()), At: int64(now), Kind: obs.KindSend,
					Site: string(from), SiteRef: int32(lb.from) + 1, Peer: string(to), Type: env.Occ.Type})
			}
		}
		switch {
		case sys.cfg.DisableBatching:
			// Differential mode: the same envelopes as per-envelope
			// messages with consecutive sequence numbers, under the one
			// shared draw SendBatchSite would have consumed.
			sys.bus.SendUnbatchedSite(now, lb.from, lb.to, len(envs), func(i int) any {
				if !sys.cfg.Serialize {
					return envs[i]
				}
				//lint:allow hotalloc — the encoded frame IS the message payload handed to the bus; its allocation is the product of serialization
				buf, err := sys.codec.Encode(envs[i])
				if err != nil {
					//lint:allow hotalloc — panic message on an unencodable envelope; never formats on the steady path
					panic(fmt.Sprintf("ddetect: envelope not encodable: %v", err))
				}
				return buf
			})
			if sys.cfg.Serialize {
				// The wire frames carry copies; the originals' transport
				// references end here.  Unserialized payloads box the
				// envelope itself, so the reference rides the message.
				releaseOccs(envs)
			}
			c.recycleEnvs(envs)
		case sys.cfg.Serialize:
			fr := c.getFrame()
			//lint:allow hotalloc — AppendBatch allocates only on its error path (unencodable batch), and the panic below formats only then
			buf, err := sys.codec.AppendBatch(fr.buf[:0], envs)
			if err != nil {
				//lint:allow hotalloc — panic message on a corrupt batch; never formats on the steady path
				panic(fmt.Sprintf("ddetect: batch not encodable: %v", err))
			}
			fr.buf = buf
			sys.bus.SendBatchSite(now, lb.from, lb.to, fr, len(envs), len(buf))
			// The receiver decodes fresh occurrences from the frame; the
			// in-memory originals' transport references end at the encode.
			releaseOccs(envs)
			c.recycleEnvs(envs)
		default:
			// In-memory payload: ownership of the envelopes — and their
			// occurrence references — transfers to the message inside a
			// pooled envRun box; the transport stage recycles both after
			// unpacking.
			sys.bus.SendBatchSite(now, lb.from, lb.to, c.getRun(envs), len(envs), 0)
		}
	}
	c.order = c.order[:0]
}

// releaseOccs drops the transport's occurrence references after a run was
// serialized: the receiving side decodes fresh objects, so the in-memory
// originals' transport life ends at the encode.
func releaseOccs(envs []wire.Envelope) {
	for _, env := range envs {
		if env.Kind == wire.KindEvent {
			env.Occ.Release()
		}
	}
}

// recycleEnvs returns a flushed (or unpacked) batch slice to the free
// list, dropping its occurrence pointers first.
func (c *linkCoalescer) recycleEnvs(envs []wire.Envelope) {
	clear(envs)
	c.freeEnvs = append(c.freeEnvs, envs[:0])
}

// getRun boxes a flushed envelope slice in a pooled envRun for the bus.
func (c *linkCoalescer) getRun(envs []wire.Envelope) *envRun {
	n := len(c.freeRuns)
	if n == 0 {
		return &envRun{envs: envs}
	}
	run := c.freeRuns[n-1]
	c.freeRuns = c.freeRuns[:n-1]
	run.envs = envs
	return run
}

// recycleRun returns an unpacked envRun box to the free list.
func (c *linkCoalescer) recycleRun(run *envRun) {
	run.envs = nil
	c.freeRuns = append(c.freeRuns, run)
}

// getFrame pops a recycled frame box, its buffer still attached (a new
// box has none, letting AppendBatch allocate the first time).
func (c *linkCoalescer) getFrame() *frame {
	n := len(c.freeFrames)
	if n == 0 {
		return &frame{}
	}
	fr := c.freeFrames[n-1]
	c.freeFrames = c.freeFrames[:n-1]
	return fr
}

// recycleFrame returns a delivered batch frame to the free list.
func (c *linkCoalescer) recycleFrame(fr *frame) {
	c.freeFrames = append(c.freeFrames, fr)
}
