package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ddetect"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// mode selects what one run of a workload attaches.
type mode int

const (
	// untraced is the measured configuration with nothing attached: the
	// run every end-to-end metric comes from.
	untraced mode = iota
	// traced adds the harness spans: the OnStage hook, a clock read after
	// every Raise and Step, and a heap sample per window.
	traced
	// observed attaches the program's own always-on observability posture
	// (span log to io.Discard sampled at 1 %, metrics registry).
	observed
	// prefix and reference are the two verification runs over the first
	// tenth of the schedule: measured and plain configuration, each
	// digesting every detection.
	prefix
	reference
	// warmup only sets a system up, for one more setup_s reading.
	warmup
)

func (m mode) String() string {
	return [...]string{"untraced", "traced", "observed", "prefix", "reference", "warmup"}[m]
}

// warmupShare of the schedule runs inside set-up so the timed region
// starts with pools filled and buffers grown.
const warmupShare = 20

// counters are exact outputs of a run: a function of the seed and of how
// many events were raised, whatever is attached and however fast the box.
type counters struct {
	Raised, Forwarded, Heartbeats, Released, Detections, Unconsumed uint64
	LatencySum, LatencyMax                                          clock.Microticks
	Net                                                             network.Stats
	PoolGets, PoolPuts, PoolDoublePuts                              uint64
	StateSize, Nodes, SharedSubexprs                                int
	Dropped, OrderViolations                                        uint64
}

// snapshot is every exact output of the system at one instant.
type snapshot struct {
	counters
	defs     []ddetect.DefStats
	legs     []ddetect.LegStats
	stages   []pipeline.StageStats // wall-clock: not compared
	poolMiss uint64                // GC-timing dependent: not compared
}

// result is everything one run measured.
type result struct {
	mode      mode
	events    int     // raises in the timed region
	raised    int     // raises in the whole run
	truncated bool    // the deadline cut the schedule short
	setupNs   int64   // build plus warm-up
	buildNs   int64   // NewSystem to seal
	warmWall  []int64 // wall time of every warm-up slice
	defineNs  int64
	mallocs   uint64
	retained  int64   // bytes live after two GCs at the mid snapshot, harness buffers subtracted
	samples   []int64 // detect_wall of every stride-th detection
	// sliceWall[i] and sliceCPU[i] are the wall and CPU time of the i-th
	// slice: sp.slice consecutive raises with the Steps between them.  Runs
	// of one seed do identical work slice by slice, which is what lets the
	// harness take the quietest run per slice.
	sliceWall, sliceCPU []int64
	// mid is the snapshot after a fixed number of raises (every run of a
	// seed reaches it, truncated or not); end the one at quiescence.
	mid, end  snapshot
	stages0   []pipeline.StageStats // at the start of the timed region
	needers   [][]bool
	setSizes  []uint64
	defCounts []uint64 // verification runs only
	digest    uint64   // verification runs only
	raiseErrs int
	settleErr error
	// traced runs only
	windows   []window
	stepNs    []uint32
	hookTotal [numSpans]int64
	gcCycles  uint32
	gcPauseNs uint64
	heapPeak  uint64
}

// runner drives one system through one schedule from a single goroutine.
type runner struct {
	sp    spec
	mode  mode
	sched *schedule
	in    *instance
	res   *result

	now         clock.Microticks
	granule     clock.Microticks
	granuleWall []int64 // wall instant simulated time first reached granule g
	nextGranule int
	lastStep    int64
	sampling    bool
	detections  int

	base             int64 // live heap before the system was built
	midAt            int   // raise index of the mid snapshot
	deadline         int64 // wall instant after which the run stops early
	sliceW0, sliceC0 int64 // start of the current slice

	last  int64 // previous clock read, traced runs
	steps int
	cur   window
}

// runOne builds a fresh system, warms it up on the first twentieth of the
// schedule's first n raises, and measures the rest.  budgetNs > 0 stops
// the timed region early (never before the mid snapshot) once that much
// wall time has passed, so a box several times slower than the one the
// schedule was sized on still finishes.  Verification modes run all n
// raises untimed.
func runOne(sp spec, seed int64, sched *schedule, n int, m mode, budgetNs int64) (*result, error) {
	r := &runner{sp: sp, mode: m, sched: sched, granule: clock.PaperConfig().GlobalGranularity}
	res := &result{mode: m, setSizes: make([]uint64, sp.sites+1)}
	r.res = res
	horizon := sched.at(n - 1).at
	r.granuleWall = make([]int64, int(horizon/r.granule)+2)
	verifying := m == prefix || m == reference
	if verifying {
		res.defCounts = make([]uint64, len(sp.defs()))
	} else {
		res.samples = make([]int64, 0, 1<<16)
		res.sliceWall = make([]int64, 0, n/sp.slice+1)
		res.sliceCPU = make([]int64, 0, n/sp.slice+1)
	}
	if m == traced {
		res.stepNs = make([]uint32, 0, n+int(horizon/stepSize)+16)
		res.windows = make([]window, 0, cap(res.stepNs)/windowSteps+2)
	}
	r.base = liveHeap()

	var cfg ddetect.Config
	switch m {
	case traced:
		cfg.Pipeline.OnStage = r.onStage
	case observed:
		cfg.Trace = obs.NewTracer(obs.NewSpanLog(io.Discard))
		cfg.Sample = obs.NewSampler(uint64(workload.SubSeed(seed, "sample")), 0.01)
		cfg.Metrics = obs.NewRegistry()
	}
	t0 := wallNow()
	in, err := build(sp, seed, cfg, m == reference, r.onDetect)
	if err != nil {
		return nil, err
	}
	r.in, res.needers = in, in.needers
	r.granuleWall[0], r.nextGranule, r.lastStep = t0, 1, t0
	warm := n / warmupShare / sp.slice * sp.slice
	if verifying {
		warm = n
	}
	r.midAt = -1
	r.sliceW0 = wallNow()
	res.buildNs = r.sliceW0 - t0
	res.raised = r.drive(0, warm)
	res.setupNs = wallNow() - t0
	res.defineNs = in.defineTime
	if verifying {
		res.settleErr = in.sys.Settle(10_000)
		res.end = r.snapshot()
		return res, nil
	}
	if m == warmup {
		return res, nil
	}

	runtime.GC()
	res.stages0 = in.sys.Stats().Stages
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// The mid snapshot sits on a slice boundary half way through.
	r.midAt = max((warm+n)/2/sp.slice*sp.slice, warm+sp.slice)
	w0 := wallNow()
	if budgetNs > 0 {
		r.deadline = w0 + budgetNs
	}
	r.sampling = true
	r.sliceW0, r.sliceC0 = w0, cpuNow()
	r.last, r.cur = w0, window{start: w0}
	res.raised = r.drive(warm, n)
	res.truncated = res.raised < n
	res.settleErr = in.sys.Settle(10_000)
	w1 := wallNow()
	if m == traced {
		r.closeWindow(w1)
	}
	runtime.ReadMemStats(&m1)
	res.events = res.raised - warm
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	// The peak counts the engine's garbage but not the harness's buffers.
	peak := max(res.heapPeak, m1.HeapAlloc)
	res.heapPeak = peak - min(uint64(r.base), peak)
	res.end = r.snapshot()
	runtime.KeepAlive(in)
	return res, nil
}

// liveHeap is HeapAlloc after two collections (the second frees what the
// first one's finalizers and pool clean-up released).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// drive is the closed loop: crank simulated time to each item's instant in
// steps of at most stepSize, then raise it.  It returns the index it
// stopped at: to, or earlier when the deadline passed.
func (r *runner) drive(from, to int) int {
	in := r.in
	tracing := r.mode == traced
	for i := from; i < to; i++ {
		it := r.sched.at(i)
		for r.now < it.at {
			r.step(min(stepSize, it.at-r.now))
		}
		if _, err := in.sites[it.site].Raise(in.types[it.typ], event.Explicit, nil); err != nil {
			r.res.raiseErrs++
		}
		if tracing && r.sampling {
			t := wallNow()
			r.cur.child[spanRaise] += t - r.last
			r.last = t
		}
		if (i+1)%r.sp.slice != 0 {
			continue
		}
		if !r.sampling { // warm-up: set-up time, slice by slice
			w := wallNow()
			r.res.warmWall = append(r.res.warmWall, w-r.sliceW0)
			r.sliceW0 = w
			continue
		}
		w, c := wallNow(), cpuNow()
		r.res.sliceWall = append(r.res.sliceWall, w-r.sliceW0)
		r.res.sliceCPU = append(r.res.sliceCPU, c-r.sliceC0)
		if i+1 == r.midAt {
			// Between two slices, so none of this is timed.
			r.res.mid = r.snapshot()
			r.res.retained = liveHeap() - r.base
			w, c = wallNow(), cpuNow()
		} else if r.deadline > 0 && w > r.deadline && i+1 > r.midAt {
			return i + 1
		}
		r.sliceW0, r.sliceC0 = w, c
	}
	return to
}

// step is System.Run's loop body, done here so the end of every Step can be
// read off the wall clock: that instant anchors detect_wall_us for the
// granules the Step entered.
func (r *runner) step(dt clock.Microticks) {
	r.in.sys.Step(dt)
	r.now += dt
	t := wallNow()
	for r.nextGranule < len(r.granuleWall) && clock.Microticks(r.nextGranule)*r.granule <= r.now {
		r.granuleWall[r.nextGranule] = t
		r.nextGranule++
	}
	r.lastStep = t
	if r.mode == traced && r.sampling {
		r.res.stepNs = append(r.res.stepNs, uint32(min(t-r.last, 1<<32-1)))
		r.last = t
		r.steps++
		if r.steps%windowSteps == 0 {
			r.closeWindow(t)
		}
	}
}

// onDetect is the subscriber of every definition.
func (r *runner) onDetect(def int, o *event.Occurrence) {
	res := r.res
	res.setSizes[min(len(o.Stamp), len(res.setSizes)-1)]++
	if res.defCounts != nil {
		res.defCounts[def]++
		res.digest += detectionHash(def, o.Stamp)
	}
	if !r.sampling {
		return
	}
	r.detections++
	if r.detections%r.sp.stride != 0 {
		return
	}
	// A site clock ahead of the reference can stamp a granule simulated
	// time has not reached yet: anchor those at the last Step.
	anchor := r.lastStep
	if g := int(max(o.Stamp.MaxGlobal(), 0)); g < r.nextGranule {
		anchor = r.granuleWall[g]
	}
	res.samples = append(res.samples, wallNow()-anchor)
}

func (r *runner) snapshot() snapshot {
	in := r.in
	st := in.sys.Stats()
	ps := in.sys.PoolStats()
	c := counters{
		Raised: st.Raised, Forwarded: st.Forwarded, Heartbeats: st.Heartbeats,
		Released: st.Released, Detections: st.Detections, Unconsumed: st.Unconsumed,
		LatencySum: st.LatencySum, LatencyMax: st.LatencyMax, Net: st.Net,
		PoolGets: ps.Gets, PoolPuts: ps.Puts, PoolDoublePuts: ps.DoublePuts,
	}
	for _, s := range in.sites {
		is := s.Detector().Introspect()
		c.StateSize += is.StateSize
		c.Nodes += is.NodeCount
		c.SharedSubexprs += is.SharedSubexprs
		c.Dropped += is.Dropped
		c.OrderViolations += is.OrderViolations
	}
	return snapshot{counters: c, defs: st.Definitions, legs: st.Legs, stages: st.Stages, poolMiss: ps.Misses}
}

// failedOps counts the operations of a run that went wrong: raises that
// returned an error, and events the quiescent system neither released nor
// counted unconsumed.  What the counters should read is predicted from the
// schedule and from which sites host a consumer of each type; forwards
// beyond the predicted primitive ones are hierarchical composite forwards,
// each released once more.
func (res *result) failedOps(sched *schedule) (failed uint64, why []string) {
	hosts := make([]uint64, len(res.needers))
	for t, sites := range res.needers {
		for _, needs := range sites {
			if needs {
				hosts[t]++
			}
		}
	}
	var deliveries, primFwd, unconsumed uint64
	for i := 0; i < res.raised; i++ {
		it := sched.at(i)
		k := hosts[it.typ]
		deliveries += k
		primFwd += k
		if res.needers[it.typ][it.site] {
			primFwd-- // self-delivered, never on the bus
		}
		if k == 0 {
			unconsumed++
		}
	}
	c := res.end.counters
	diff := func(what string, got, want uint64) {
		if got != want {
			failed += max(got, want) - min(got, want)
			why = append(why, fmt.Sprintf("%s run: %s = %d, want %d", res.mode, what, got, want))
		}
	}
	if res.raiseErrs > 0 {
		failed += uint64(res.raiseErrs)
		why = append(why, fmt.Sprintf("%s run: %d raises failed", res.mode, res.raiseErrs))
	}
	if res.settleErr != nil {
		failed++
		why = append(why, fmt.Sprintf("%s run: %v", res.mode, res.settleErr))
	}
	diff("raised", c.Raised, uint64(res.raised))
	diff("released", c.Released+primFwd, deliveries+c.Forwarded)
	diff("unconsumed", c.Unconsumed, unconsumed)
	diff("detector.order_violations", c.OrderViolations, 0)
	diff("event.pool.double_puts", c.PoolDoublePuts, 0)
	return failed, why
}

// differences lists how two snapshots of one workload and seed, taken after
// the same number of raises, differ: every run must report identical
// counters and per-definition counts whatever is attached to it.
func differences(what string, a, b snapshot) []string {
	var why []string
	if a.counters != b.counters {
		why = append(why, fmt.Sprintf("%s: counters differ: %+v vs %+v", what, a.counters, b.counters))
	}
	if !slices.Equal(a.defs, b.defs) {
		why = append(why, what+": per-definition stats differ")
	}
	if !slices.Equal(a.legs, b.legs) {
		why = append(why, what+": latency legs differ")
	}
	return why
}

// verification is the outcome of checking a workload's outputs against the
// reference before timing it.
type verification struct {
	attempted, failed uint64
	why               []string
	orderViolations   uint64 // seen by the reference run's order checking
}

// verify runs the first tenth of the schedule in the measured and in the
// plain configuration and compares them detection for detection.
func verify(sp spec, seed int64, sched *schedule, n int) (verification, error) {
	n = max(n/10, 1)
	v := verification{attempted: uint64(2 * n)}
	got, err := runOne(sp, seed, sched, n, prefix, 0)
	if err != nil {
		return v, err
	}
	want, err := runOne(sp, seed, sched, n, reference, 0)
	if err != nil {
		return v, err
	}
	v.orderViolations = want.end.OrderViolations
	for _, res := range []*result{got, want} {
		f, w := res.failedOps(sched)
		v.failed += f
		v.why = append(v.why, w...)
	}
	for d := range want.defCounts {
		if g, w := got.defCounts[d], want.defCounts[d]; g != w {
			v.failed += max(g, w) - min(g, w)
			v.why = append(v.why, fmt.Sprintf("definition %d: %d detections, reference %d", d, g, w))
		}
	}
	if got.digest != want.digest {
		v.failed++
		v.why = append(v.why, fmt.Sprintf("detection digest %016x, reference %016x", got.digest, want.digest))
	}
	return v, nil
}

// detectionHash mixes one detection's definition and stamp components; the
// digest is the wrapping sum of these, so it does not depend on the order
// detections were published in.
func detectionHash(def int, stamp core.SetStamp) uint64 {
	h := mix(uint64(def) + 0x9e3779b97f4a7c15)
	for _, t := range stamp {
		c := uint64(14695981039346656037)
		for i := 0; i < len(t.Site); i++ {
			c = (c ^ uint64(t.Site[i])) * 1099511628211
		}
		// Components are a set: sum them so their order does not matter either.
		h += mix(c ^ mix(uint64(t.Global)) ^ mix(uint64(t.Local)+0x632be59bd9b4e019))
	}
	return mix(h)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
