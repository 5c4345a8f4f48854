package ddetect

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// Config assembles a distributed detection system.
type Config struct {
	// Clock is the simulated time base (clock.PaperConfig by default).
	Clock clock.Config
	// Net is the simulated network (perfect by default).
	Net network.Config
	// HeartbeatEvery is the watermark period in microticks; it defaults
	// to one global granule, the finest useful cadence.
	HeartbeatEvery clock.Microticks
	// Release selects the watermark release mode; the zero value is
	// ReleaseTotalOrder (deterministic, centralized-equivalent).
	Release ReleaseMode
	// Serialize, when true, encodes every envelope crossing the bus with
	// internal/wire and decodes it at the receiver, proving the engine
	// needs no shared memory between sites (and costing one codec round
	// trip per message).
	Serialize bool
	// DisableBatching turns off per-link envelope coalescing: every
	// envelope travels as its own bus message, with the same per-flush
	// delay schedule the batched transport would have produced (see
	// network.Bus.SendUnbatchedSite).  Detection output is byte-identical
	// either way — this is the differential mode that proves batching is
	// a pure transport optimization, and a way to measure its win.
	DisableBatching bool
	// Journal, when non-nil, receives every raised primitive occurrence
	// as an internal/eventlog record, enabling replay-based recovery of
	// detector state after a crash.
	Journal io.Writer
	// DisablePooling turns off occurrence recycling: every raise and
	// every composite allocates fresh storage that falls to the garbage
	// collector, exactly the pre-pool behaviour.  Detection output is
	// byte-identical either way (TestPoolingDeterminism) — this is the
	// differential mode that proves pooling is a pure memory
	// optimization.  Tracing composes with pooling: span identity is
	// keyed by (pointer, pool generation), so recycling a slot starts a
	// fresh span instead of aliasing the old one
	// (TestTracerComposesWithPooling).
	DisablePooling bool
	// DisableSharing turns off common-subexpression sharing in every
	// site's detector: each definition compiles a private operator
	// subgraph, the pre-CSE behaviour.  Detection output is
	// byte-identical either way (TestSharingDeterminism) — this is the
	// differential mode that proves the shared detection graph is a pure
	// compile/dispatch optimization.
	DisableSharing bool
	// EnforceSimultaneity applies the paper's Section 3.1 assumptions 3
	// and 4: no two database events and no two explicit events may be
	// simultaneous.  With it set, raising a second Database or Explicit
	// event at a site within the same local clock tick fails with
	// ErrSimultaneous instead of producing stamps the assumptions forbid
	// (advance the simulated clock between raises).
	EnforceSimultaneity bool
	// Pipeline configures the staged execution: OnStage is an optional
	// per-stage instrumentation hook.  See internal/pipeline.
	Pipeline pipeline.Config
	// Trace, when non-nil, receives a span event at every lineage point
	// an occurrence crosses — raise, send, recv, release, detect,
	// publish — plus a per-stage note each tick.  Tracing is a pure
	// observer: span IDs are assigned in crank order, all timestamps are
	// simulated microticks, and the occurrence stream is byte-identical
	// with tracing on or off (TestObsDeterminism).  Tracing composes with
	// pooling — span identity is keyed by (pointer, pool generation),
	// mirroring the pool's own use-after-put check, so a recycled slot
	// starts a fresh span — and the span stream is identical pooled or
	// unpooled.  In
	// Serialize mode, occurrences decoded on the receiving side are
	// distinct objects and get fresh span IDs; the send/recv hop is
	// still visible via site+peer+type.  A tracing run retains an ID per
	// traced occurrence, so prefer bounded runs or a Sample rate for
	// long-lived systems.
	Trace *obs.Tracer
	// Sample, when non-nil alongside Trace, head-samples the span
	// stream: each raise is kept or dropped by a seeded hash of its
	// identity (type, origin site, stamp) — no ambient randomness — and
	// the decision propagates through constituent capture, so a
	// composite detection is sampled exactly when every constituent is
	// and a sampled detection always carries complete lineage.  An
	// explicit per-definition rate (Sampler.SetRate) thins that
	// definition's detections further; it can only drop, never resurrect
	// a lineage the head decision dropped.  Stats, eventlogs and
	// detection are sampling-blind (TestObsDeterminism runs the matrix
	// at rates 0, 0.1 and 1).  A nil Sampler keeps every span.
	Sample *obs.Sampler
	// Metrics, when non-nil, is populated with the system's native
	// instruments (release/detection latency histograms) and a collector
	// bridging the Stats/StageStats/network.Stats counters, so one
	// Registry snapshot exports everything.  A Registry belongs to one
	// System (instrument names would collide otherwise).
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Clock == (clock.Config{}) {
		c.Clock = clock.PaperConfig()
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.Clock.GlobalGranularity
	}
	return c
}

// Stats aggregates system activity.
type Stats struct {
	Raised     uint64
	Forwarded  uint64 // event messages put on the bus
	Heartbeats uint64
	Released   uint64 // events handed to detectors after reordering
	Detections uint64 // composite occurrences across all definitions
	Unconsumed uint64 // raised events no definition needed
	LatencySum clock.Microticks
	LatencyMax clock.Microticks
	Net        network.Stats
	// Stages holds per-stage tick counters and wall-clock latency
	// histograms, in pipeline order (ingest, transport, release, detect,
	// publish).
	Stages []pipeline.StageStats
	// Definitions holds per-definition detection counts and latencies,
	// sorted by definition name.
	Definitions []DefStats
	// Legs holds per-leg pipeline latency aggregates (raise→send,
	// send→recv, recv→release, raise→release for self-delivered events,
	// release→publish for detection constituents), indexed by StageLeg.
	// All deltas are simulated microticks, so the aggregates are as
	// deterministic as the run.
	Legs []LegStats
}

// MeanLatency returns the mean raise-to-release latency in microticks:
// how long the average occurrence waited between being raised and
// clearing its consumer's watermark.  (It was previously documented as
// raise-to-publish, which conflated transport latency with detection
// latency; per-definition detection latency lives in Definitions.)
func (s Stats) MeanLatency() float64 {
	if s.Released == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Released)
}

// DefStats aggregates one definition's detections.  Latency here is
// *detection* latency in event time: publish instant minus the start of
// the newest global granule in the detection's Max-set timestamp — i.e.
// how far behind its own constituents each detection ran.  Being a pure
// function of simulated time and the composite timestamp, it is
// identical across transport modes.
type DefStats struct {
	// Name is the definition name.
	Name string
	// Detections counts published occurrences of this definition.
	Detections uint64
	// LatencySum and LatencyMax aggregate detection latency in
	// microticks.
	LatencySum clock.Microticks
	LatencyMax clock.Microticks
}

// MeanLatency returns the mean detection latency in microticks.
func (d DefStats) MeanLatency() float64 {
	if d.Detections == 0 {
		return 0
	}
	return float64(d.LatencySum) / float64(d.Detections)
}

// defRecord is everything the publish stage consults per detection of one
// definition, gathered so that one lookup by the detection's TypeID
// (System.defByID) replaces a string-keyed map access for each.
type defRecord struct {
	stats DefStats
	// hold is the definition's release→publish hold histogram (nil, a
	// no-op, without Config.Metrics).
	hold *obs.Histogram
	// handlers are the System.Subscribe handlers, in subscription order;
	// Subscribe appends here before and after seal alike.
	handlers []detector.Handler
	// needers lists the other definitions' hosts the detection is
	// forwarded to (hierarchical mode); filled at seal.
	needers []core.Site
}

// StageLeg identifies one pipeline-leg transition in the per-stage
// latency attribution.  The engine stamps each occurrence with the last
// stage boundary it crossed (event.StageMark) and the simulated instant
// it did; each subsequent crossing attributes the delta to one leg.
// Detect and publish share a tick instant (detections buffered by the
// detect stage complete in the same tick's publish stage), so the
// raise→send→recv→release→detect→publish chain collapses its final two
// hops into release→publish.
type StageLeg uint8

const (
	// LegRaiseSend: raise to the coalescer flush that put the occurrence
	// on the bus.
	LegRaiseSend StageLeg = iota
	// LegSendRecv: bus flight time, flush to transport-stage accept.
	LegSendRecv
	// LegRecvRelease: reorder-buffer dwell, accept to watermark release.
	LegRecvRelease
	// LegRaiseRelease: the self-delivery shortcut — an occurrence
	// consumed at its origin site never crosses the bus, so its one
	// observable hop is raise to watermark release.
	LegRaiseRelease
	// LegReleasePublish: detector hold — how long a constituent waited
	// between its watermark release and the publication of a detection
	// it participated in.  Observed per (constituent, detection) pair,
	// so a constituent reused by a Recent context is attributed once per
	// detection.
	LegReleasePublish

	numLegs
)

// String returns the leg name used in metric labels and reports.
func (l StageLeg) String() string {
	switch l {
	case LegRaiseSend:
		return "raise_to_send"
	case LegSendRecv:
		return "send_to_recv"
	case LegRecvRelease:
		return "recv_to_release"
	case LegRaiseRelease:
		return "raise_to_release_local"
	case LegReleasePublish:
		return "release_to_publish"
	}
	return "unknown"
}

// LegStats aggregates one leg's simulated-time deltas.  For an
// occurrence consumed at several sites the mark follows the most recent
// crossing in crank order — a deterministic approximation that keeps the
// attribution at two fields per occurrence instead of per-delivery
// state.
type LegStats struct {
	// Leg names the transition.
	Leg StageLeg
	// Count, Sum and Max aggregate the observed deltas in microticks.
	Count uint64
	Sum   clock.Microticks
	Max   clock.Microticks
}

// Mean returns the mean delta in microticks.
func (l LegStats) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// System is a simulated multi-site detection deployment.  It owns the
// clock, the network and all site runtimes, and is driven in simulated
// time by Step/Run/Settle.
//
// Each tick runs an explicit five-stage pipeline — ingest, transport,
// release, detect, publish (see stages.go and internal/pipeline).  The
// public entry points are not safe for concurrent use: one goroutine
// turns the crank, and every stage runs on it (internal/live funnels
// concurrent producers onto that goroutine).
type System struct {
	cfg   Config
	clk   *clock.System
	bus   *network.Bus
	reg   *event.Registry
	sites []*Site
	// roster is the sealed membership: dense index i names sys.sites[i]
	// (AddSite keeps sites sorted by ID, and roster order is ID order).
	// Every post-seal hot path — reorderers, the coalescer's link table,
	// the bus's dense link index, the wire codec — runs on these indexes;
	// strings survive only at the public API and in eventlog/report
	// output, so determinism artifacts stay byte-identical.
	roster *core.Roster
	// needers records, per event type, the ID-sorted hosting sites whose
	// definitions reference it.  seal translates each list to dense roster
	// indexes (same order — interning preserves ID order) and hands it to
	// the two hot paths that consult it: the ingest stage's raise routes
	// and the per-definition records below.
	needers map[string][]core.SiteID
	// codec is the roster-aware wire codec (Serialize mode): interned site
	// indexes in occurrence frames, delta-encoded heartbeat frontiers.
	codec *wire.Codec
	// hbSinks (fixed at seal) lists the sites that can receive remote
	// event envelopes — the sites appearing in some needers list.  Only
	// their watermarks gate on remote frontiers, so only they are
	// heartbeated; a heartbeat to any other site would advance a
	// frontier nothing ever waits on.
	hbSinks []*Site
	nextHB  clock.Microticks
	sealed  bool
	stats   Stats
	journal *eventlog.Writer

	// tr is the lineage tracer (nil when Config.Trace is unset: every
	// span point then costs one nil check); smp is the head sampler
	// gating its span stream (nil keeps everything).
	tr  *obs.Tracer
	smp *obs.Sampler
	// defs holds one record per definition — its detection stats, hold
	// histogram, System.Subscribe handlers and forwarding list — keyed by
	// name; defNames keeps the names sorted so snapshots and exporters
	// never iterate the map.  defByID (built at seal) indexes the same
	// records by the definition's TypeID, which every detection carries,
	// so the publish stage resolves all four with one slice index.
	// noDef stands in for a detection whose type has no record: it has no
	// handlers, no needers and no histogram, and nothing reads its stats.
	defs     map[string]*defRecord
	defNames []string
	defByID  []*defRecord
	noDef    defRecord
	// hRelease and hDetect are the system's native metric instruments
	// (nil no-ops without Config.Metrics): simulated-time histograms of
	// raise-to-release and detection latency.
	hRelease *obs.Histogram
	hDetect  *obs.Histogram
	// legs aggregates per-leg pipeline latency always (plain field
	// arithmetic, no allocation); hLegs mirrors each leg into a registry
	// histogram when Config.Metrics is set (nil no-ops otherwise), and
	// defRecord.hold does the same per definition for the
	// release→publish hold of its constituents.
	legs  [numLegs]LegStats
	hLegs [numLegs]*obs.Histogram

	// pipe composes the five stage drivers; ingest is kept aside because
	// Site.Raise drives it between ticks; coal is the per-link transport
	// coalescer the ingest and publish stages queue into and flush (see
	// coalesce.go).
	pipe   *pipeline.Driver
	ingest *ingestStage
	coal   *linkCoalescer

	// opool recycles occurrences, their stamp storage and constituent
	// lists through the whole lifecycle — raise, transport, detection,
	// publish (see internal/event's pool.go for the ownership rules).
	// nil only when pooling is off (Config.DisablePooling); every
	// Retain/Release in the engine is then a no-op.  Tracing does not
	// suspend it: span identity is generation-stamped, so recycling is
	// invisible to the tracer.  The pool belongs to the crank goroutine.
	opool *event.Pool

	// inFlightEvents counts event envelopes on the bus (heartbeats are
	// perpetual and excluded), for the quiescence check.
	inFlightEvents int
}

// NewSystem builds a system.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	clk, err := clock.NewSystem(cfg.Clock)
	if err != nil {
		return nil, err
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	sys := &System{
		cfg:     cfg,
		clk:     clk,
		bus:     network.NewBus(cfg.Net),
		reg:     event.NewRegistry(),
		needers: make(map[string][]core.SiteID),
		nextHB:  cfg.HeartbeatEvery,
		tr:      cfg.Trace,
		smp:     cfg.Sample,
		defs:    make(map[string]*defRecord),
	}
	for i := range sys.legs {
		sys.legs[i].Leg = StageLeg(i)
	}
	if reg := cfg.Metrics; reg != nil {
		// Bucket bounds in microticks, spanning sub-granule to
		// many-granule latencies under the default 100-microtick granule.
		bounds := []int64{10, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000}
		sys.hRelease = reg.Histogram("sentinel_release_latency_microticks", bounds...)
		sys.hDetect = reg.Histogram("sentinel_detect_latency_microticks", bounds...)
		for i := range sys.hLegs {
			sys.hLegs[i] = reg.Histogram(
				fmt.Sprintf("sentinel_stage_leg_microticks{leg=%q}", StageLeg(i)), bounds...)
		}
		reg.RegisterCollector(sys.collectMetrics)
	}
	if cfg.Journal != nil {
		sys.journal = eventlog.NewWriter(cfg.Journal)
	}
	sys.coal = newLinkCoalescer(sys)
	sys.ingest = &ingestStage{sys: sys, routes: make(map[string]typeRoute)}
	sys.pipe = pipeline.NewDriver(
		sys.ingest,
		&transportStage{sys: sys},
		&releaseStage{sys: sys},
		&detectStage{sys: sys},
		&publishStage{sys: sys},
	)
	sys.pipe.Hook(cfg.Pipeline.OnStage)
	if sys.tr != nil {
		sys.pipe.Hook(sys.stageNote)
	}
	return sys, nil
}

// stageNote mirrors non-empty stage ticks into the tracer as system-ring
// notes, giving flight-recorder dumps the stage context around the spans.
// Wall-clock elapsed time is deliberately omitted: every field of a span
// must be a function of simulated time so traces diff cleanly across
// runs.
func (sys *System) stageNote(ev pipeline.StageEvent) {
	if ev.Items == 0 {
		return
	}
	var detail string
	if sys.tr.Active() {
		detail = fmt.Sprintf("items=%d", ev.Items)
	}
	sys.tr.Emit(obs.SpanEvent{At: int64(ev.Now), Kind: obs.KindNote, Type: ev.Stage, Detail: detail})
}

// MustNewSystem is NewSystem that panics on error.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Registry returns the shared event type registry.
func (sys *System) Registry() *event.Registry { return sys.reg }

// Clock returns the simulated time base.
func (sys *System) Clock() *clock.System { return sys.clk }

// Now returns the current reference time.
func (sys *System) Now() clock.Microticks { return sys.clk.Now() }

// Stats returns a snapshot of the counters, including per-stage pipeline
// stats and per-definition detection stats (sorted by name).
func (sys *System) Stats() Stats {
	st := sys.stats
	st.Net = sys.bus.Stats()
	st.Stages = sys.pipe.Stats()
	if len(sys.defNames) > 0 {
		st.Definitions = make([]DefStats, 0, len(sys.defNames))
		for _, name := range sys.defNames {
			st.Definitions = append(st.Definitions, sys.defs[name].stats)
		}
	}
	st.Legs = append([]LegStats(nil), sys.legs[:]...)
	return st
}

// collectMetrics is the pull bridge registered on Config.Metrics: it
// republishes the Stats/StageStats/network.Stats counters as registry
// samples at snapshot time, keeping the structs the single source of
// truth with zero hot-path duplication.  Only simulated-time quantities
// are exported (stage wall-clock histograms stay in Stats.Stages), so a
// registry export is as deterministic as the run itself.
func (sys *System) collectMetrics(emit func(name string, value float64)) {
	st := sys.stats
	emit("sentinel_raised_total", float64(st.Raised))
	emit("sentinel_forwarded_total", float64(st.Forwarded))
	emit("sentinel_heartbeats_total", float64(st.Heartbeats))
	emit("sentinel_released_total", float64(st.Released))
	emit("sentinel_detections_total", float64(st.Detections))
	emit("sentinel_unconsumed_total", float64(st.Unconsumed))
	net := sys.bus.Stats()
	emit("sentinel_net_messages_sent_total", float64(net.Sent))
	emit("sentinel_net_messages_delivered_total", float64(net.Delivered))
	emit("sentinel_net_retransmitted_total", float64(net.Retransmitted))
	emit("sentinel_net_envelopes_total", float64(net.Envelopes))
	emit("sentinel_net_batches_total", float64(net.Batches))
	emit("sentinel_net_payload_bytes_total", float64(net.PayloadBytes))
	emit("sentinel_net_max_in_flight", float64(net.MaxInFlight))
	// Occurrence pool counters.  Gets/puts/double-puts are logical
	// lifecycle transitions and as deterministic as the run.  Misses are
	// deliberately NOT exported: they are timing-dependent (the runtime
	// may drop pooled objects under GC pressure — and does so randomly
	// under the race detector), which would break the run-to-run
	// byte-identical registry export; read them from PoolStats() or the
	// distsim -stats section instead.
	ps := sys.opool.Stats()
	emit("sentinel_pool_gets_total", float64(ps.Gets))
	emit("sentinel_pool_puts_total", float64(ps.Puts))
	emit("sentinel_pool_double_puts_averted_total", float64(ps.DoublePuts))
	for _, ss := range sys.pipe.Stats() {
		emit(fmt.Sprintf("sentinel_stage_items_total{stage=%q}", ss.Name), float64(ss.Items))
		emit(fmt.Sprintf("sentinel_stage_ticks_total{stage=%q}", ss.Name), float64(ss.Ticks))
	}
	for _, name := range sys.defNames {
		ds := &sys.defs[name].stats
		emit(fmt.Sprintf("sentinel_def_detections_total{def=%q}", name), float64(ds.Detections))
		emit(fmt.Sprintf("sentinel_def_latency_max_microticks{def=%q}", name), float64(ds.LatencyMax))
		emit(fmt.Sprintf("sentinel_def_latency_mean_microticks{def=%q}", name), ds.MeanLatency())
	}
	for _, s := range sys.sites {
		is := s.det.Introspect()
		emit(fmt.Sprintf("sentinel_detector_state_size{site=%q}", s.ID), float64(is.StateSize))
		emit(fmt.Sprintf("sentinel_detector_dropped_total{site=%q}", s.ID), float64(is.Dropped))
		emit(fmt.Sprintf("sentinel_detector_pending_timers{site=%q}", s.ID), float64(is.PendingTimers))
		emit(fmt.Sprintf("sentinel_detector_nodes{site=%q}", s.ID), float64(is.NodeCount))
		emit(fmt.Sprintf("sentinel_detector_shared_subexprs{site=%q}", s.ID), float64(is.SharedSubexprs))
		emit(fmt.Sprintf("sentinel_detector_interned_subtrees{site=%q}", s.ID), float64(is.InternedSubtrees))
	}
}

// defFor returns the record of the definition o is a detection of, or
// the inert noDef.
func (sys *System) defFor(o *event.Occurrence) *defRecord {
	if id := int(o.TypeID); uint(id) < uint(len(sys.defByID)) && sys.defByID[id] != nil {
		return sys.defByID[id]
	}
	return &sys.noDef
}

// legFor maps a (last crossed, now crossing) stage-mark pair to the leg
// it observes, or numLegs for transitions that carry no attribution
// (repeat crossings by multi-consumer events, serialize-decoded
// occurrences whose pre-decode history ended at the encode).
func legFor(from, to event.StageMark) StageLeg {
	switch {
	case from == event.MarkRaise && to == event.MarkSend:
		return LegRaiseSend
	case from == event.MarkSend && to == event.MarkRecv:
		return LegSendRecv
	case from == event.MarkRecv && to == event.MarkRelease:
		return LegRecvRelease
	case from == event.MarkRaise && to == event.MarkRelease:
		return LegRaiseRelease
	}
	return numLegs
}

// mark records that o just crossed stage boundary m at the simulated
// instant now: defined transitions attribute the delta since the last
// crossing to their leg, every crossing restamps the mark.  Runs on the
// crank goroutine only (ingest raise, coalescer flush, transport accept,
// release accounting), so the leg aggregates are single-writer like
// every other Stats counter.
func (sys *System) mark(o *event.Occurrence, m event.StageMark, now clock.Microticks) {
	if leg := legFor(o.Mark, m); leg < numLegs {
		d := now - clock.Microticks(o.MarkAt)
		ls := &sys.legs[leg]
		ls.Count++
		ls.Sum += d
		if d > ls.Max {
			ls.Max = d
		}
		sys.hLegs[leg].Observe(int64(d))
	}
	o.Mark = m
	o.MarkAt = int64(now)
}

// observeHold attributes, for each constituent the detection o captured,
// the wait between the constituent's watermark release and this publish
// instant — the detector-hold leg — plus the per-definition hold
// histogram h (nil, a no-op, without metrics).  Constituent marks are left
// untouched: a constituent a Recent context reuses is attributed once
// per detection it participates in, each time from its release instant.
func (sys *System) observeHold(o *event.Occurrence, h *obs.Histogram, now clock.Microticks) {
	for _, c := range o.Constituents {
		if c.Mark != event.MarkRelease {
			continue
		}
		d := now - clock.Microticks(c.MarkAt)
		ls := &sys.legs[LegReleasePublish]
		ls.Count++
		ls.Sum += d
		if d > ls.Max {
			ls.Max = d
		}
		sys.hLegs[LegReleasePublish].Observe(int64(d))
		h.Observe(int64(d))
	}
}

// decideSample resolves the head-sampling decision for an occurrence
// whose bit is still unset: primitives hash their raise identity (type,
// origin site, stamp — the same inputs whether computed at raise or
// recomputed after a serialize-mode decode), composites AND their
// constituents' decisions so a kept detection always carries complete
// lineage, and a definition name carrying an explicit per-name rate is
// thinned further by a hash of the detection's own identity.  Callers
// gate on sys.smp != nil; the result is also stamped on o so each
// occurrence is decided once.
func (sys *System) decideSample(o *event.Occurrence) event.SampleState {
	if o.Sample != event.SampleUndecided {
		return o.Sample
	}
	smp := sys.smp
	keep := true
	if len(o.Constituents) == 0 {
		st0 := o.Stamp[0]
		keep = smp.Keep(o.Type, string(st0.Site), st0.Global, st0.Local)
	} else {
		for _, c := range o.Constituents {
			if sys.decideSample(c) == event.SampleDrop {
				keep = false
				break
			}
		}
		if keep && smp.HasRate(o.Type) {
			keep = smp.Keep(o.Type, string(o.Site), o.Stamp.MaxGlobal(), 0)
		}
	}
	if keep {
		o.Sample = event.SampleKeep
	} else {
		o.Sample = event.SampleDrop
	}
	return o.Sample
}

// Site is one site runtime: a clock, a detector and a reorderer.
type Site struct {
	ID  core.SiteID
	sys *System
	clk *clock.SiteClock
	det *detector.Detector
	re  *reorderer
	// idx is the site's dense roster index, assigned at seal; every
	// post-seal per-message path addresses the site by it.
	idx core.Site

	selfSeq uint64
	// lastLocal tracks the last raised local tick per event class, for
	// Config.EnforceSimultaneity.
	lastLocal map[event.Class]int64
	// crashed marks a site that stopped: it raises nothing and sends no
	// heartbeats.  See System.Crash and System.Decommission.
	crashed bool

	// Inter-stage buffers, each owned by exactly one stage at a time:
	// inbox carries watermark-released occurrences from the release stage
	// to the detect stage; detected carries this site's composite
	// detections (appended by the per-definition recorder, in detection
	// order) from the detect stage to the publish stage.
	inbox    []*event.Occurrence
	detected []*event.Occurrence
}

// ErrSimultaneous reports a violation of the Section 3.1 simultaneity
// assumptions (see Config.EnforceSimultaneity).
var ErrSimultaneous = errors.New("ddetect: two events of the same class at the same site and local tick")

// ErrCrashed reports an operation on a crashed site.
var ErrCrashed = errors.New("ddetect: site has crashed")

// Crash simulates a site failure: the site stops heartbeating and can no
// longer raise events.  Its silence stalls every other site's watermark —
// exactly the behaviour a real watermark-ordered system exhibits — until
// the operator acknowledges the loss with Decommission.
func (sys *System) Crash(id core.SiteID) error {
	sys.seal()
	s := sys.siteFor(id)
	if s == nil {
		return fmt.Errorf("ddetect: unknown site %q", id)
	}
	s.crashed = true
	return nil
}

// Decommission removes a (typically crashed) site's clock from every
// watermark: remaining sites stop waiting for its heartbeats and buffered
// events resume releasing.  Events the dead site sent before crashing are
// still processed.  Detection involving only surviving sites continues;
// anything that needed the dead site's future events is simply never
// completed — the honest semantics of a lost site.
func (sys *System) Decommission(id core.SiteID) error {
	sys.seal()
	dead := sys.siteFor(id)
	if dead == nil {
		return fmt.Errorf("ddetect: unknown site %q", id)
	}
	if err := sys.Crash(id); err != nil {
		return err
	}
	for _, s := range sys.sites {
		s.re.exclude(dead.idx)
	}
	return nil
}

// siteTime adapts a site clock to detector.TimeSource.
type siteTime struct {
	sys *clock.System
	clk *clock.SiteClock
	id  core.SiteID
}

func (st siteTime) Now() clock.Microticks { return st.sys.Now() }

func (st siteTime) StampAt(ref clock.Microticks) core.Stamp {
	l := st.clk.LocalTick(ref)
	return core.Stamp{Site: st.id, Global: st.clk.GlobalTick(l), Local: l}
}

// ErrSealed is returned when topology changes after the simulation
// started.
var ErrSealed = errors.New("ddetect: topology is sealed once the simulation has started")

// AddSite registers a site with the given clock offset and drift (bounded
// by the configured precision Π).
func (sys *System) AddSite(id core.SiteID, offset clock.Microticks, driftPPM int64) (*Site, error) {
	if sys.sealed {
		return nil, ErrSealed
	}
	sc, err := sys.clk.AddSite(string(id), offset, driftPPM)
	if err != nil {
		return nil, err
	}
	s := &Site{
		ID:  id,
		sys: sys,
		clk: sc,
		det: detector.New(id, sys.reg, siteTime{sys: sys.clk, clk: sc, id: id}),
	}
	if sys.cfg.DisableSharing {
		s.det.SetSharing(false)
	}
	sys.sites = append(sys.sites, s)
	sort.Slice(sys.sites, func(i, j int) bool { return sys.sites[i].ID < sys.sites[j].ID })
	return s, nil
}

// siteFor resolves a SiteID to its runtime by binary search over the
// ID-sorted site slice — the one string lookup left on the control paths
// (Crash, Decommission, DefineAt, Site); everything per-message runs on
// dense roster indexes.
func (sys *System) siteFor(id core.SiteID) *Site {
	i := sort.Search(len(sys.sites), func(i int) bool { return sys.sites[i].ID >= id })
	if i < len(sys.sites) && sys.sites[i].ID == id {
		return sys.sites[i]
	}
	return nil
}

// MustAddSite is AddSite that panics on error.
func (sys *System) MustAddSite(id core.SiteID, offset clock.Microticks, driftPPM int64) *Site {
	s, err := sys.AddSite(id, offset, driftPPM)
	if err != nil {
		panic(err)
	}
	return s
}

// Site returns the site runtime registered under id, or nil.
func (sys *System) Site(id core.SiteID) *Site { return sys.siteFor(id) }

// Roster returns the sealed membership — index i names the i'th site in
// ID order — sealing the topology if the simulation has not started yet
// (call it after every AddSite/DefineAt).  Attach it to roster-aware
// observers (obs.ChromeTrace.UseRoster, obs.FlightRecorder.UseRoster)
// before the first tick so their per-site state keys by dense index.
func (sys *System) Roster() *core.Roster {
	sys.seal()
	return sys.roster
}

// Declare registers a primitive event type usable at any site.
func (sys *System) Declare(name string, class event.Class) error {
	_, err := sys.reg.Declare(name, class)
	return err
}

// DefineAt compiles a named composite event at the hosting site.  Every
// primitive (or previously defined composite) the expression references is
// recorded as needed by the host, so the ingest stage forwards matching
// occurrences there; a referenced composite defined at another site is
// additionally forwarded from its own host when it is detected
// (hierarchical mode, handled by the publish stage).
func (sys *System) DefineAt(host core.SiteID, name, expression string, ctx detector.Context) (*detector.Definition, error) {
	if sys.sealed {
		return nil, ErrSealed
	}
	s := sys.siteFor(host)
	if s == nil {
		return nil, fmt.Errorf("ddetect: unknown host site %q", host)
	}
	root, err := expr.Parse(expression)
	if err != nil {
		return nil, err
	}
	def, err := s.det.Define(name, root, ctx)
	if err != nil {
		return nil, err
	}
	for _, prim := range expr.Primitives(root) {
		sys.addNeeder(prim, host)
	}
	// Per-definition record (the publish stage fills its stats); defNames
	// keeps the map's keys sorted so snapshots never iterate the map.
	if sys.defs[name] == nil {
		rec := &defRecord{stats: DefStats{Name: name}}
		if reg := sys.cfg.Metrics; reg != nil {
			rec.hold = reg.Histogram(
				fmt.Sprintf("sentinel_def_hold_microticks{def=%q}", name),
				10, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000)
		}
		sys.defs[name] = rec
		sys.defNames = append(sys.defNames, name)
		sort.Strings(sys.defNames)
	}
	// Recorder: buffer every detection of this definition on its host
	// site, in detection order.  The publish stage completes them after
	// the detect stage — counting, System.Subscribe fan-out and
	// hierarchical forwarding to the sites recorded in needers.
	s.det.Subscribe(name, func(o *event.Occurrence) {
		o.Retain() // the publish stage owns this reference and releases it
		s.detected = append(s.detected, o)
	})
	return def, nil
}

// addNeeder records that host needs occurrences of typ (idempotent).
func (sys *System) addNeeder(typ string, host core.SiteID) {
	for _, h := range sys.needers[typ] {
		if h == host {
			return
		}
	}
	sys.needers[typ] = append(sys.needers[typ], host)
	sort.Slice(sys.needers[typ], func(i, j int) bool { return sys.needers[typ][i] < sys.needers[typ][j] })
}

// hostOf returns the site at which a composite name is defined, or nil.
func (sys *System) hostOf(name string) *Site {
	for _, s := range sys.sites {
		for _, def := range s.det.Definitions() {
			if def.Name == name {
				return s
			}
		}
	}
	return nil
}

// Subscribe attaches a handler to a definition.  Handlers run on the
// crank goroutine during the publish stage, after every site has
// detected, in deterministic (site, detection) order.
//
// The occurrence passed to a handler is a borrow: it (and its
// constituent tree) is valid for the duration of the call, after which
// the publish stage may recycle it through the occurrence pool.  A
// handler that stores the pointer past its return must call Retain (and
// Release when done); handlers that only read fields, serialize, or
// count need nothing.  The occurrence pool belongs to the goroutine
// driving the System, so that Retain and Release must themselves run on
// it — inside a handler, between Steps, or through live.Runtime.Do — the
// rule every other System method already has (DESIGN.md §2h).
func (sys *System) Subscribe(name string, h detector.Handler) error {
	if sys.hostOf(name) == nil {
		return fmt.Errorf("ddetect: no site defines %q", name)
	}
	rec := sys.defs[name]
	if rec == nil {
		// Defined on a site's detector directly, not through DefineAt:
		// nothing records its detections for the publish stage, so the
		// handler is kept but never runs.
		rec = &defRecord{stats: DefStats{Name: name}}
		sys.defs[name] = rec
	}
	rec.handlers = append(rec.handlers, h)
	return nil
}

// seal freezes the topology: it interns the membership into the roster
// (dense index i names sys.sites[i], since both are ID-sorted), attaches
// the roster to the bus and the wire codec, translates the needers lists
// to dense form for the raise routes and the definition records, indexes
// the records by TypeID, and equips every site's reorderer with its source set.
// Event envelopes only ever flow to the sites recorded in some needers
// list (any site may raise any type, so each such sink can hear from
// every other site); a site outside every needers list receives nothing,
// so its watermark gates only on its own frontier and nobody needs to
// heartbeat it.  seal fixes both sides of that asymmetry: full source
// sets (and heartbeat fan-in, see ingestStage.Tick) for the sinks,
// self-only for everyone else — and the coalescer's link table, one link
// from every site to every sink, since nothing is ever sent elsewhere.
func (sys *System) seal() {
	if sys.sealed {
		return
	}
	sys.sealed = true
	ids := make([]core.SiteID, 0, len(sys.sites))
	for _, s := range sys.sites {
		ids = append(ids, s.ID)
	}
	sys.roster = core.NewRoster(ids)
	for i, s := range sys.sites {
		s.idx = core.Site(i)
	}
	sys.bus.SetRoster(sys.roster)
	// Occurrence pooling needs the sealed roster (interned stamp
	// components).  Tracing no longer suspends it: span identity is
	// keyed by (pointer, generation), so a recycled slot cannot alias a
	// previous tenant's span.  The codec decodes into the same pool: a
	// decoded occurrence's creator reference is its delivery reference,
	// which the detect stage drops after dispatch.
	if !sys.cfg.DisablePooling {
		sys.opool = event.NewPool(sys.roster)
		for _, s := range sys.sites {
			s.det.UsePool(sys.opool)
		}
	}
	sys.codec = &wire.Codec{Roster: sys.roster, Granule: int64(sys.cfg.Clock.GlobalGranularity), Types: sys.reg, Pool: sys.opool}
	sink := make([]bool, len(sys.sites))
	sys.defByID = make([]*defRecord, sys.reg.Count()+1)
	for typ, hosts := range sys.needers { //lint:allow mapiter — per-type entries are independent and each dense list inherits its string list's ID-sorted order; hbSinks below is appended in sys.sites order
		dense := make([]core.Site, len(hosts))
		for i, h := range hosts {
			dense[i] = sys.roster.MustSite(h)
			sink[dense[i]] = true
		}
		// A needed type reaches its hosts when it is raised (the ingest
		// route) and, if it is itself a definition, when it is detected
		// (the record).  DefineAt validated every name against the
		// registry, so the ID is never 0 here.
		sys.ingest.routes[typ] = typeRoute{id: sys.reg.TypeID(typ), needers: dense}
		if rec := sys.defs[typ]; rec != nil {
			rec.needers = dense
		}
	}
	for _, name := range sys.defNames {
		sys.defByID[sys.reg.TypeID(name)] = sys.defs[name]
	}
	for _, s := range sys.sites {
		if sink[s.idx] {
			s.re = newReorderer(sys.roster)
			sys.hbSinks = append(sys.hbSinks, s)
		} else {
			s.re = newSelfReorderer(sys.roster, s.idx)
		}
	}
	// A host that forwards a composite definition to another site sends
	// keys whose site is not its own: that sink's reorderer marks it so.
	for _, s := range sys.sites {
		for _, def := range s.det.Definitions() {
			if rec := sys.defs[def.Name]; rec != nil {
				for _, dst := range rec.needers {
					if dst != s.idx {
						sys.sites[dst].re.forwarding(s.idx)
					}
				}
			}
		}
	}
	sys.coal.seal(len(sys.sites), sys.hbSinks)
}

// PoolStats returns a snapshot of the occurrence pool counters (zero when
// pooling is off).
func (sys *System) PoolStats() event.PoolStats { return sys.opool.Stats() }

// StampNow returns the site's current primitive timestamp.
func (s *Site) StampNow() core.Stamp { return s.stampAt(s.sys.clk.Now()) }

// stampAt is the site's primitive timestamp at reference time ref.
func (s *Site) stampAt(ref clock.Microticks) core.Stamp {
	l := s.clk.LocalTick(ref)
	return core.Stamp{Site: s.ID, Global: s.clk.GlobalTick(l), Local: l}
}

// Detector exposes the site's detector (for advanced wiring in examples
// and tests).  Handlers subscribed directly here — rather than through
// System.Subscribe — run inside the detect stage, ahead of the tick's
// publish stage and outside its accounting.
func (s *Site) Detector() *detector.Detector { return s.det }

// Raise raises a primitive event at this site, stamped by its clock, and
// forwards it to every site whose definitions need it (the ingest stage).
// The returned occurrence is a borrow: with pooling active it stays valid
// only until the Step that consumes its deliveries, after which it may be
// recycled — read or copy what you need (the stamp, the type) before
// stepping.  An occurrence no definition consumes is never recycled.
func (s *Site) Raise(typ string, class event.Class, params event.Params) (*event.Occurrence, error) {
	return s.sys.ingest.raise(s, typ, class, params)
}

// MustRaise is Raise that panics on error.
func (s *Site) MustRaise(typ string, class event.Class, params event.Params) *event.Occurrence {
	o, err := s.Raise(typ, class, params)
	if err != nil {
		panic(err)
	}
	return o
}

// forwardComposite queues a locally detected composite occurrence for the
// sites that reference it by name (needers, from the definition's record;
// hierarchical mode) at the publish stage's instant now; the stage flushes
// the queued forwards at the end of its Tick.  Runs on the crank
// goroutine.
func (sys *System) forwardComposite(from *Site, o *event.Occurrence, needers []core.Site, now clock.Microticks) {
	env := wire.Envelope{Kind: wire.KindEvent, Occ: o, RaisedAt: now}
	for _, dst := range needers {
		if dst == from.idx {
			continue // local consumers already saw it via the detector
		}
		sys.coal.add(from.idx, dst, env)
		sys.stats.Forwarded++
		sys.inFlightEvents++
	}
}

// selfDeliver puts a local occurrence through the site's own reorderer
// stream so local and remote events interleave in one linear extension.
// Like coal.add it takes the delivery's reference on the occurrence; the
// detect stage releases it after dispatch.
func (s *Site) selfDeliver(env wire.Envelope) {
	env.Occ.Retain()
	s.selfSeq++
	if err := s.re.accept(s.idx, s.selfSeq, env); err != nil {
		panic(err) // programming error: self stream is always in order
	}
}

// Step advances simulated time by dt and runs one pipeline tick over
// everything that became due: heartbeats, message deliveries, watermark
// releases, detection and publication.  Processing is deterministic
// (stages in order, sites in ID order).
func (sys *System) Step(dt clock.Microticks) {
	sys.seal()
	now := sys.clk.Advance(dt)
	sys.pipe.Tick(now)
}

// Run advances to target in fixed steps.
func (sys *System) Run(target, step clock.Microticks) {
	if step <= 0 {
		panic("ddetect: non-positive step")
	}
	for sys.clk.Now() < target {
		dt := step
		if rem := target - sys.clk.Now(); rem < dt {
			dt = rem
		}
		sys.Step(dt)
	}
}

// Settle keeps stepping by the heartbeat period until the network and all
// reorderers are quiescent (or maxSteps is exhausted), so every raised
// event that can be detected has been.
func (sys *System) Settle(maxSteps int) error {
	sys.seal()
	for i := 0; i < maxSteps; i++ {
		if sys.quiescent() {
			return nil
		}
		sys.Step(sys.cfg.HeartbeatEvery)
	}
	if !sys.quiescent() {
		return fmt.Errorf("ddetect: not quiescent after %d settle steps", maxSteps)
	}
	return nil
}

// quiescent reports whether nothing is in flight or buffered.  The
// inter-stage buffers need no check: every Step drains inbox and detected
// completely before returning.
func (sys *System) quiescent() bool {
	if sys.inFlightEvents > 0 {
		return false
	}
	for _, s := range sys.sites {
		if s.re.pendingEvents() > 0 {
			return false
		}
	}
	return true
}
