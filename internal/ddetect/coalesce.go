package ddetect

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/wire"
)

// linkCoalescer accumulates what is bound for each (from,to) link and
// hands it to the bus in per-tick batches: one Message — one
// latency/jitter/loss draw, one link sequence number, one wire frame when
// serializing — per link per flush, instead of one per (occurrence,
// destination).  The ingest and publish stages are its only producers
// (Site.Raise between ticks, heartbeats and hierarchical forwards during
// their Ticks), and each flushes at the end of its Tick, so everything a
// tick emits onto a link travels as one frame.
//
// A link's pending traffic is a run of envelopes plus one frontier: the
// heartbeat is state of the link, two integers, not an envelope in the
// run.  On most links at most flushes the frontier is all there is, and
// such a link is sent without an envelope ever being built (sendFrontier);
// a link that also has events gets the frontier appended to its run and
// goes the general way.
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
// flush methods are the only code in this package that calls the Bus's
// send methods.
type linkCoalescer struct {
	sys *System
	// links is the dense link table, built at seal: row from holds one
	// linkBatch per event sink, in hbSinks order, since every link ends at
	// a sink (sinkAt maps a sink's roster index to its column, -1 for any
	// other site).  A heartbeat walks a sender's row; add indexes it.
	links  [][]linkBatch
	sinkAt []int32
	// order lists the links with pending traffic in first-use order —
	// deterministic, since every add happens on the crank goroutine —
	// and is the flush iteration order.
	order []*linkBatch

	// freeEnvs recycles flushed batch slices for in-memory payloads; the
	// transport stage returns each slice after unpacking it.  freeRuns
	// recycles the envRun boxes those slices ship in, freeFrontiers the
	// boxes of in-memory lone frontiers, and freeFrames does the same for
	// serialized frames and their buffers.
	freeEnvs      [][]wire.Envelope
	freeRuns      []*envRun
	freeFrontiers []*frontierMsg
	freeFrames    []*frame
}

// envRun is the bus payload of an in-memory coalesced batch.  Boxing the
// run as a pointer costs nothing per flush; boxing the []wire.Envelope slice
// header directly into the Message's any field copied it to the heap on
// every send — the single largest allocation site of the 16-site
// end-to-end profile before this container existed.
type envRun struct {
	envs []wire.Envelope
}

// frontierMsg is the bus payload of an in-memory message that carries one
// heartbeat and nothing else: the frontier and its nominal instant.
type frontierMsg struct {
	global int64
	at     clock.Microticks
}

// frame is the bus payload of a serialized batch (a lone frontier's
// included), boxed as a pointer for the reason envRun is: a []byte header
// in the Message's any field is one heap copy per send.  The box and its
// buffer are recycled together.
type frame struct {
	buf []byte
}

// linkBatch is one link's pending traffic, addressed by dense roster
// indexes: the envelope run and, when hasFrontier, the newest heartbeat
// queued behind it.
type linkBatch struct {
	from, to    core.Site
	envs        []wire.Envelope
	hasFrontier bool
	global      int64
	at          clock.Microticks
}

func newLinkCoalescer(sys *System) *linkCoalescer {
	return &linkCoalescer{sys: sys}
}

// seal builds the link table over the sealed membership and its sinks.
func (c *linkCoalescer) seal(sites int, sinks []*Site) {
	c.sinkAt = make([]int32, sites)
	for i := range c.sinkAt {
		c.sinkAt[i] = -1
	}
	for j, s := range sinks {
		c.sinkAt[s.idx] = int32(j)
	}
	c.links = make([][]linkBatch, sites)
	cells := make([]linkBatch, sites*len(sinks))
	for from := range c.links {
		row := cells[from*len(sinks) : (from+1)*len(sinks) : (from+1)*len(sinks)]
		for j, s := range sinks {
			row[j].from, row[j].to = core.Site(from), s.idx
		}
		c.links[from] = row
	}
}

// add queues one envelope for the (from,to) link, to be sent at the next
// flush.  An event envelope's queued pointer is a stored reference: add is
// the single choke point through which every remote delivery passes —
// raises, heartbeat-era forwards, hierarchical composite forwards — so the
// transport's Retain lives here and is dropped wherever the envelope's
// journey ends (the detect stage after dispatch for in-memory payloads,
// the serializing flush after encoding).
func (c *linkCoalescer) add(from, to core.Site, env wire.Envelope) {
	if env.Kind == wire.KindEvent {
		env.Occ.Retain()
	}
	lb := &c.links[from][c.sinkAt[to]]
	if len(lb.envs) == 0 && !lb.hasFrontier {
		c.order = append(c.order, lb)
	}
	c.push(lb, env)
}

// push appends env to lb's run, starting the run in a recycled slice.
func (c *linkCoalescer) push(lb *linkBatch, env wire.Envelope) {
	if len(lb.envs) == 0 {
		if n := len(c.freeEnvs); n > 0 {
			lb.envs, c.freeEnvs = c.freeEnvs[n-1], c.freeEnvs[:n-1]
		}
	}
	lb.envs = append(lb.envs, env)
}

// heartbeat queues site from's frontier — global time global, read at the
// nominal heartbeat instant at — on its link to every sink but itself,
// and returns how many links that is.  A frontier still pending from an
// earlier heartbeat of the same flush (a Step longer than the heartbeat
// period) is spilled into the run first, so the link carries every
// heartbeat, in order, as it always has.
func (c *linkCoalescer) heartbeat(from core.Site, global int64, at clock.Microticks) int {
	row := c.links[from]
	n := 0
	for j := range row {
		lb := &row[j]
		if lb.to == from {
			continue
		}
		if lb.hasFrontier {
			c.push(lb, lb.frontier())
		} else if len(lb.envs) == 0 {
			c.order = append(c.order, lb)
		}
		lb.hasFrontier, lb.global, lb.at = true, global, at
		n++
	}
	return n
}

// frontier renders lb's pending heartbeat as an envelope, for the run.
func (lb *linkBatch) frontier() wire.Envelope {
	return wire.Envelope{Kind: wire.KindHeartbeat, Global: lb.global, RaisedAt: lb.at}
}

// flush hands every pending link batch to the bus, in deterministic
// first-use link order, consuming exactly one delay/loss draw per link.
// It runs single-threaded on the crank goroutine (end of the ingest and
// publish Ticks).
func (c *linkCoalescer) flush(now clock.Microticks) {
	if len(c.order) == 0 {
		return
	}
	sys := c.sys
	for _, lb := range c.order {
		if lb.hasFrontier {
			lb.hasFrontier = false
			if len(lb.envs) == 0 && !sys.cfg.DisableBatching {
				c.sendFrontier(now, lb)
				continue
			}
			// Behind events, behind spilled heartbeats, or in the
			// differential mode the frontier travels as the run's last
			// envelope.
			c.push(lb, lb.frontier())
		}
		envs := lb.envs
		lb.envs = nil
		c.markSends(now, lb, envs)
		switch {
		case sys.cfg.DisableBatching:
			// Differential mode: the same envelopes as per-envelope
			// messages with consecutive sequence numbers, under the one
			// shared draw SendBatchSite would have consumed.
			sys.bus.SendUnbatchedSite(now, lb.from, lb.to, len(envs), func(i int) any {
				if !sys.cfg.Serialize {
					return envs[i]
				}
				buf, err := sys.codec.Encode(envs[i])
				if err != nil {
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
			buf, err := sys.codec.AppendBatch(fr.buf[:0], envs)
			if err != nil {
				panic(fmt.Sprintf("ddetect: batch not encodable: %v", err))
			}
			fr.buf = buf
			sys.bus.SendBatchSite(now, lb.from, lb.to, fr, len(envs), len(buf))
			// The receiver decodes its own occurrences from the frame; the
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

// sendFrontier sends a link whose whole batch is its pending frontier: one
// bus message of one envelope, as the general path would send it — the
// same draw, the same sequence number, serialized the same bytes — built
// from the link's two integers alone.
func (c *linkCoalescer) sendFrontier(now clock.Microticks, lb *linkBatch) {
	sys := c.sys
	if !sys.cfg.Serialize {
		sys.bus.SendBatchSite(now, lb.from, lb.to, c.getFrontier(lb.global, lb.at), 1, 0)
		return
	}
	fr := c.getFrame()
	buf, err := sys.codec.AppendFrontier(fr.buf[:0], lb.global, lb.at)
	if err != nil {
		panic(fmt.Sprintf("ddetect: frontier not encodable: %v", err))
	}
	fr.buf = buf
	sys.bus.SendBatchSite(now, lb.from, lb.to, fr, 1, len(buf))
}

// markSends stamps the flush instant on every event of a run about to hit
// the bus: the raise→send latency mark and — when tracing, for sampled
// lineages — one send span per event envelope (heartbeats are perpetual
// noise and go unattributed).  Span fields stay strings, so traces diff
// against old captures; the link's names are resolved at the first span,
// which most links' runs never emit.
func (c *linkCoalescer) markSends(now clock.Microticks, lb *linkBatch, envs []wire.Envelope) {
	sys := c.sys
	tr := sys.tr
	var from, to core.SiteID
	named := false
	for _, env := range envs {
		if env.Kind != wire.KindEvent {
			continue
		}
		sys.mark(env.Occ, event.MarkSend, now)
		if tr != nil && env.Occ.Sample != event.SampleDrop {
			if !named {
				from, to, named = sys.roster.ID(lb.from), sys.roster.ID(lb.to), true
			}
			tr.Emit(obs.SpanEvent{ID: tr.ID(env.Occ, env.Occ.Gen()), At: int64(now), Kind: obs.KindSend,
				Site: string(from), SiteRef: int32(lb.from) + 1, Peer: string(to), Type: env.Occ.Type})
		}
	}
}

// releaseOccs drops the transport's occurrence references after a run was
// serialized: the receiving side decodes its own objects, so the in-memory
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

// getFrontier boxes a lone frontier in a pooled frontierMsg for the bus.
func (c *linkCoalescer) getFrontier(global int64, at clock.Microticks) *frontierMsg {
	n := len(c.freeFrontiers)
	if n == 0 {
		return &frontierMsg{global: global, at: at}
	}
	m := c.freeFrontiers[n-1]
	c.freeFrontiers = c.freeFrontiers[:n-1]
	m.global, m.at = global, at
	return m
}

// recycleFrontier returns a delivered frontier box to the free list.
func (c *linkCoalescer) recycleFrontier(m *frontierMsg) {
	c.freeFrontiers = append(c.freeFrontiers, m)
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
