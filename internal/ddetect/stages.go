package ddetect

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file holds the five stage drivers the System composes into its
// per-tick pipeline (see internal/pipeline):
//
//	ingest    — site raises (stamping, simultaneity enforcement,
//	            journaling, bus hand-off) and watermark heartbeats
//	transport — batch-draining the bus and restoring per-link FIFO
//	            order in each site's reorderer
//	release   — watermark release of stable events into per-site
//	            detect inboxes
//	detect    — running every site's detector graph over its inbox
//	publish   — subscriber fan-out, hierarchical forwarding and stats,
//	            in deterministic site order
//
// Every stage runs on the crank goroutine and walks the sites in ID
// order, so the sequence of side effects — bus sends and the seeded RNG
// behind them, the Stats counters, spans, user handlers — is a function
// of the stamped history alone.  Detect only buffers its detections;
// publish completes them once every site has detected (see
// publishStage).

// ingestStage drives the raise path and the heartbeat cadence.  Raises
// happen between ticks (the application calls Site.Raise); the stage's
// Tick emits due heartbeats and accounts the raises since the last tick.
type ingestStage struct {
	sys *System
	// raised counts Site.Raise calls since the last tick, for the
	// stage's item accounting.
	raised int
	// routes resolves a raised type name, in one lookup on a table only
	// the crank goroutine touches, to what raise needs of it; the shared
	// Registry's lock is taken only the first time a name is seen.  seal
	// enters every type some definition needs; any other declared type is
	// entered by its first raise, with no needers — DefineAt is refused
	// after seal, so an entry cannot go stale.  An undeclared name is
	// never entered, so it resolves once it has been declared.
	routes map[string]typeRoute
}

// typeRoute is what raising one event type takes: its dense ID and the
// roster indexes of the sites hosting a definition that needs it.
type typeRoute struct {
	id      event.TypeID
	needers []core.Site
}

// route resolves typ; ok is false for a name the registry does not know.
func (st *ingestStage) route(typ string) (typeRoute, bool) {
	if r, ok := st.routes[typ]; ok {
		return r, true
	}
	id := st.sys.reg.TypeID(typ)
	if id == 0 {
		return typeRoute{}, false
	}
	r := typeRoute{id: id}
	st.routes[typ] = r
	return r, true
}

func (st *ingestStage) Name() string { return "ingest" }

// Tick queues due watermark heartbeats — each site's global time read at
// the nominal heartbeat instant — and then flushes the link coalescer:
// everything queued since the last flush (raises between ticks plus these
// heartbeats) leaves as one batch per link.  Per-link order is raises
// first, heartbeats second, exactly the per-link send order of the
// unbatched transport.
func (st *ingestStage) Tick(now clock.Microticks) int {
	sys := st.sys
	n := st.raised
	st.raised = 0
	for sys.nextHB <= now {
		for _, s := range sys.sites {
			if s.crashed {
				continue
			}
			g := s.clk.GlobalTick(s.clk.LocalTick(sys.nextHB))
			s.re.setFrontier(s.idx, g)
			// Only the event sinks (sites in some needers list) gate
			// their watermark on remote frontiers; heartbeating anyone
			// else would advance a frontier nothing waits on (see
			// System.seal).  The frontier travels with the nominal
			// heartbeat instant — the reference the wire codec
			// delta-encodes it against in Serialize mode.
			sent := sys.coal.heartbeat(s.idx, g, sys.nextHB)
			sys.stats.Heartbeats += uint64(sent)
			n += sent
		}
		sys.nextHB += sys.cfg.HeartbeatEvery
	}
	sys.coal.flush(now)
	return n
}

// raise is the ingest half of Site.Raise: stamp, enforce the Section 3.1
// simultaneity assumptions, journal, and hand the occurrence to the
// transport (the link coalescer, flushed at the next ingest tick) or the
// site's own stream.  With Serialize on, encodability is checked here,
// eagerly — the encoding itself happens at the deferred flush, and a
// failure there would be detached from the raise that caused it.
func (st *ingestStage) raise(s *Site, typ string, class event.Class, params event.Params) (*event.Occurrence, error) {
	sys := st.sys
	sys.seal()
	rt, ok := st.route(typ)
	if !ok {
		return nil, fmt.Errorf("%w: %q", event.ErrUnknownType, typ)
	}
	if s.crashed {
		return nil, fmt.Errorf("%w: %q", ErrCrashed, s.ID)
	}
	// One clock read serves the stamp, the envelope and the raise mark.
	now := sys.clk.Now()
	var occ *event.Occurrence
	if pool := sys.opool; pool != nil {
		// Pooled raise: the occurrence, its singleton stamp and the
		// interned component (filled from the site's dense index — no
		// roster lookup) come from recycled storage; params stay
		// caller-owned.  The creator reference is dropped below once the
		// deliveries hold their own.
		occ = pool.GetPrimitive(typ, class, s.stampAt(now), s.idx, params)
	} else {
		occ = event.NewPrimitive(typ, class, s.stampAt(now), params)
	}
	// The existence check above already paid the name lookup; carrying
	// the dense ID from here on keeps every downstream dispatch — local
	// delivery and each receiving site's detector — string-free.
	occ.TypeID = rt.id
	if sys.cfg.Serialize {
		if err := wire.ValidateOccurrence(occ); err != nil {
			return nil, fmt.Errorf("ddetect: occurrence not encodable: %w", err)
		}
	}
	if sys.cfg.EnforceSimultaneity && (class == event.Database || class == event.Explicit) {
		if s.lastLocal == nil {
			s.lastLocal = make(map[event.Class]int64)
		}
		local := occ.Stamp[0].Local
		if last, seen := s.lastLocal[class]; seen && last == local {
			return nil, fmt.Errorf("%w: %s at %s, local tick %d", ErrSimultaneous, class, s.ID, local)
		}
		s.lastLocal[class] = local
	}
	if sys.journal != nil {
		if err := sys.journal.Append(occ); err != nil {
			return nil, fmt.Errorf("ddetect: journal: %w", err)
		}
	}
	env := wire.Envelope{Kind: wire.KindEvent, Occ: occ, RaisedAt: now}
	sys.stats.Raised++
	st.raised++
	// First stage crossing: no leg to attribute yet, just stamp the mark.
	occ.Mark = event.MarkRaise
	occ.MarkAt = int64(now)
	if sys.smp != nil {
		sys.decideSample(occ)
	}
	if tr := sys.tr; tr != nil && occ.Sample != event.SampleDrop {
		var detail string
		if tr.Active() {
			detail = occ.Stamp.String()
		}
		tr.Emit(obs.SpanEvent{ID: tr.ID(occ, occ.Gen()), At: int64(now), Kind: obs.KindRaise,
			Site: string(s.ID), SiteRef: int32(s.idx) + 1, Type: typ, Detail: detail})
	}
	if len(rt.needers) == 0 {
		sys.stats.Unconsumed++
		return occ, nil
	}
	for _, dst := range rt.needers {
		if dst == s.idx {
			s.selfDeliver(env)
		} else {
			sys.coal.add(s.idx, dst, env)
			sys.stats.Forwarded++
			sys.inFlightEvents++
		}
	}
	// Drop the creator's reference: the deliveries queued above hold their
	// own.  The returned occurrence is a borrow, valid until the detect
	// stage consumes the deliveries in a later Step; an unconsumed raise
	// (the early return above) keeps the creator reference and stays a
	// plain heap borrow forever.
	occ.Release()
	return occ, nil
}

// transportStage drains the bus in one batch per tick, unpacks each
// message's payload — a lone frontier (two integers in memory, a
// one-heartbeat frame serialized), a coalesced envelope run, a serialized
// batch frame, or a single envelope (encoded or not) in the differential
// unbatched mode — and feeds it into the destination site's reorderer,
// which restores per-link FIFO order.  The drain and decode scratch slices
// are reused across ticks, and unpacked containers go back to the
// coalescer's free lists.
type transportStage struct {
	sys     *System
	batch   []network.Message
	decoded []wire.Envelope
	// now is the current tick's simulated time, stashed by Tick so the
	// accept helpers can stamp recv spans without threading it through.
	now clock.Microticks
}

func (st *transportStage) Name() string { return "transport" }

// Tick drains due messages into per-site reorderers; the count it reports
// is envelopes, not bus messages.
func (st *transportStage) Tick(now clock.Microticks) int {
	sys := st.sys
	st.now = now
	st.batch = sys.bus.DrainDue(now, st.batch[:0])
	n := 0
	for i := range st.batch {
		m := &st.batch[i]
		// The bus carries dense indexes once the roster is attached (at
		// seal, before any traffic); resolving the destination is one
		// slice index, no string hash.
		if m.ToSite < 0 || int(m.ToSite) >= len(sys.sites) {
			panic(fmt.Sprintf("ddetect: message to unknown site index %d", m.ToSite))
		}
		dst := sys.sites[m.ToSite]
		switch p := m.Payload.(type) {
		case *envRun:
			st.acceptRun(dst, m.FromSite, m.Seq, p.envs)
			n += len(p.envs)
			sys.coal.recycleEnvs(p.envs)
			sys.coal.recycleRun(p)
		case *frontierMsg:
			st.acceptFrontier(dst, m.FromSite, m.Seq, p.global, p.at)
			n++
			sys.coal.recycleFrontier(p)
		case *frame:
			if g, at, ok := sys.codec.DecodeFrontier(p.buf); ok {
				st.acceptFrontier(dst, m.FromSite, m.Seq, g, at)
				n++
			} else {
				st.decoded = st.decoded[:0]
				if err := sys.codec.DecodeBatch(p.buf, st.appendDecoded); err != nil {
					panic(fmt.Sprintf("ddetect: corrupt batch: %v", err))
				}
				st.acceptRun(dst, m.FromSite, m.Seq, st.decoded)
				n += len(st.decoded)
				clear(st.decoded)
			}
			sys.coal.recycleFrame(p)
		case []byte:
			env, err := sys.codec.Decode(p)
			if err != nil {
				panic(fmt.Sprintf("ddetect: corrupt envelope: %v", err))
			}
			st.acceptOne(dst, m.FromSite, m.Seq, env)
			n++
		case wire.Envelope:
			st.acceptOne(dst, m.FromSite, m.Seq, p)
			n++
		default:
			panic(fmt.Sprintf("ddetect: unexpected payload type %T", p))
		}
		m.Payload = nil
	}
	return n
}

// appendDecoded is the streaming DecodeBatch callback, a method so the
// per-message decode loop allocates no closure.
func (st *transportStage) appendDecoded(env wire.Envelope) error {
	st.decoded = append(st.decoded, env)
	return nil
}

// acceptRun hands one coalesced envelope run to the reorderer.
func (st *transportStage) acceptRun(dst *Site, from core.Site, seq uint64, envs []wire.Envelope) {
	sys := st.sys
	for _, env := range envs {
		if env.Kind == wire.KindEvent {
			sys.inFlightEvents--
			sys.acceptEvent(env.Occ, dst, from, st.now)
		}
	}
	if err := dst.re.acceptBatch(from, seq, envs); err != nil {
		panic(err) // bus sequencing guarantees make this unreachable
	}
}

// acceptFrontier hands one lone-frontier message to the reorderer.
func (st *transportStage) acceptFrontier(dst *Site, from core.Site, seq uint64, global int64, at clock.Microticks) {
	if err := dst.re.acceptFrontier(from, seq, global, at); err != nil {
		panic(err) // bus sequencing guarantees make this unreachable
	}
}

// acceptOne hands one single-envelope message to the reorderer.
func (st *transportStage) acceptOne(dst *Site, from core.Site, seq uint64, env wire.Envelope) {
	if env.Kind == wire.KindEvent {
		st.sys.inFlightEvents--
		st.sys.acceptEvent(env.Occ, dst, from, st.now)
	}
	if err := dst.re.accept(from, seq, env); err != nil {
		panic(err) // bus sequencing guarantees make this unreachable
	}
}

// acceptEvent applies the per-arrival observability: the recv latency
// mark, the serialize-mode sample recomputation (a decoded occurrence is
// its own object, whose in-memory sample bit did not travel — the
// decision is a pure function of raise identity, so recomputing it here
// yields the bit the origin stamped), and the recv span, the one place
// the sender's index is resolved back to a name.
func (sys *System) acceptEvent(occ *event.Occurrence, dst *Site, from core.Site, now clock.Microticks) {
	if occ.Sample == event.SampleUndecided && sys.smp != nil {
		sys.decideSample(occ)
	}
	sys.mark(occ, event.MarkRecv, now)
	if tr := sys.tr; tr != nil && occ.Sample != event.SampleDrop {
		tr.Emit(obs.SpanEvent{ID: tr.ID(occ, occ.Gen()), At: int64(now), Kind: obs.KindRecv,
			Site: string(dst.ID), SiteRef: int32(dst.idx) + 1, Peer: string(sys.roster.ID(from)), Type: occ.Type})
	}
}

// releaseStage pops every watermark-stable event, in each site's
// deterministic (global, site, local, arrival) order, into the site's
// detect inbox, accounting raise-to-release latency.
type releaseStage struct {
	sys *System
	// stable is the scratch run one site's reorderer pops into; it is
	// drained into that site's inbox before the next site is advanced.
	stable []wire.Envelope
}

func (st *releaseStage) Name() string { return "release" }

// Tick releases watermark-stable events into the detect inboxes.
func (st *releaseStage) Tick(now clock.Microticks) int {
	sys := st.sys
	n := 0
	for _, s := range sys.sites {
		// Every site's own heartbeat marks its reorderer stale; at all but
		// the few sites holding an event that is all there is to it.
		if len(s.re.ready) == 0 {
			continue
		}
		st.stable = s.re.releaseInto(sys.cfg.Release, st.stable[:0])
		for _, env := range st.stable {
			sys.stats.Released++
			lat := now - env.RaisedAt
			sys.stats.LatencySum += lat
			if lat > sys.stats.LatencyMax {
				sys.stats.LatencyMax = lat
			}
			sys.hRelease.Observe(int64(lat))
			sys.mark(env.Occ, event.MarkRelease, now)
			if tr := sys.tr; tr != nil && env.Occ.Sample != event.SampleDrop {
				tr.Emit(obs.SpanEvent{ID: tr.ID(env.Occ, env.Occ.Gen()), At: int64(now), Kind: obs.KindRelease,
					Site: string(s.ID), SiteRef: int32(s.idx) + 1, Type: env.Occ.Type})
			}
			s.inbox = append(s.inbox, env.Occ)
		}
		n += len(st.stable)
		clear(st.stable)
	}
	return n
}

// detectStage runs every site's detector over its released inbox and
// fires due detector timers.  Detections are NOT published here; the
// per-definition recorder buffers them per site for the publish stage.
type detectStage struct {
	sys *System
}

func (st *detectStage) Name() string { return "detect" }

func (st *detectStage) Tick(now clock.Microticks) int {
	n := 0
	for _, s := range st.sys.sites {
		// For an idle site both PublishBatch (empty batch) and AdvanceTo
		// (no timers) are no-ops: at thousands of sites the stage touches
		// only the handful that heard something.
		if len(s.inbox) == 0 && s.det.PendingTimers() == 0 {
			continue
		}
		n += len(s.inbox)
		s.det.PublishBatch(s.inbox)
		// Dispatch done: drop the delivery references taken at coal.add /
		// selfDeliver.  Whatever the graph buffered holds its own.
		for j, o := range s.inbox {
			s.inbox[j] = nil
			o.Release()
		}
		s.inbox = s.inbox[:0]
		s.det.AdvanceTo(now)
	}
	return n
}

// publishStage completes each buffered detection, iterating sites in ID
// order: count it, fan it out to System.Subscribe handlers, and forward it
// to remote sites whose definitions reference it by name (hierarchical
// mode).  It is its own stage, after every site has detected, for two
// reasons.  User handlers never run re-entrantly inside a detector's batch
// dispatch: the occurrence they receive is a borrow that the recorder's
// reference keeps alive until the handler returns (System.Subscribe).  And
// all of a tick's forwards, with anything a handler raised, leave in one
// coalescer flush — one batch per link, queued in site order, which fixes
// the bus send order and hence the seeded jitter/loss schedule.
type publishStage struct {
	sys *System
}

func (st *publishStage) Name() string { return "publish" }

func (st *publishStage) Tick(now clock.Microticks) int {
	sys := st.sys
	n := 0
	for _, s := range sys.sites {
		// The full-site scan stays (an active list built before the loop
		// would change when handler-injected detections at already-visited
		// sites drain); the common idle site costs one length check.
		if len(s.detected) == 0 {
			continue
		}
		// Index loop: a handler that publishes into this site's detector
		// can append further detections mid-drain; they are completed in
		// the same tick.
		for i := 0; i < len(s.detected); i++ {
			o := s.detected[i]
			sys.stats.Detections++
			// Detection latency in event time: how far past the newest
			// global granule in its Max-set timestamp this detection
			// published.  A pure function of simulated time and the
			// composite timestamp, so identical across transport modes.
			lat := now - clock.Microticks(o.Stamp.MaxGlobal())*sys.cfg.Clock.GlobalGranularity
			if lat < 0 {
				lat = 0
			}
			// One lookup by the detection's dense ID serves the stats, the
			// hold histogram, the handlers and the forwarding list.
			rec := sys.defFor(o)
			ds := &rec.stats
			ds.Detections++
			ds.LatencySum += lat
			if lat > ds.LatencyMax {
				ds.LatencyMax = lat
			}
			sys.hDetect.Observe(int64(lat))
			sys.observeHold(o, rec.hold, now)
			if sys.smp != nil {
				sys.decideSample(o)
			}
			if tr := sys.tr; tr != nil && o.Sample != event.SampleDrop {
				links := tr.LinkBuf()
				for _, c := range o.Constituents {
					links = append(links, tr.ID(c, c.Gen()))
				}
				var detail string
				if tr.Active() {
					detail = o.Stamp.String()
				}
				id := tr.ID(o, o.Gen())
				tr.Emit(obs.SpanEvent{ID: id, At: int64(now), Kind: obs.KindDetect,
					Site: string(s.ID), SiteRef: int32(s.idx) + 1, Type: o.Type, Detail: detail, Links: links})
				tr.KeepLinkBuf(links)
				tr.Emit(obs.SpanEvent{ID: id, At: int64(now), Kind: obs.KindPublish,
					Site: string(s.ID), SiteRef: int32(s.idx) + 1, Type: o.Type})
			}
			// A detection's publish is its raise as far as downstream legs
			// are concerned: hierarchical forwards attribute raise→send,
			// send→recv, … like any primitive from here.
			o.Mark = event.MarkRaise
			o.MarkAt = int64(now)
			for _, h := range rec.handlers {
				h(o)
			}
			if len(rec.needers) > 0 {
				sys.forwardComposite(s, o, rec.needers, now)
			}
			// Drop the recorder's reference.  Handlers have run by now:
			// System.Subscribe's contract is a borrow — the occurrence is
			// valid for the duration of each handler call, and a handler
			// that keeps the pointer must Retain it — so publish is where
			// the detection's tree returns to the pool.
			o.Release()
			n++
		}
		clear(s.detected)
		s.detected = s.detected[:0]
	}
	// Flush the hierarchical forwards (and anything a handler raised)
	// queued above: one batch per link per tick.
	sys.coal.flush(now)
	return n
}
