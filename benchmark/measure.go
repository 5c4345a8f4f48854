package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one metric: its unit, which direction is better, and for
// end-to-end metrics the bound by which it may worsen before a change
// counts as a regression (relative, plus an absolute slack).
type metricDef struct {
	Name, Unit   string
	HigherBetter bool
	Bound, Slack float64
}

// endToEnd are the metrics a user of the system would see.  BENCHMARK.json
// carries the same names, units and bounds (failed_ops_share is there as
// the failed ÷ attempted of the result line, since a bounded metric may
// never be 0).
var endToEnd = []metricDef{
	{Name: "events_per_sec", Unit: "events/s", HigherBetter: true, Bound: 0.25},
	{Name: "detect_wall_us_p50", Unit: "us", Bound: 0.25},
	{Name: "detect_wall_us_p95", Unit: "us", Bound: 0.25},
	{Name: "detect_latency_ticks_mean", Unit: "microticks", Bound: 0.02},
	{Name: "allocs_per_event", Unit: "allocs", Bound: 0.02, Slack: 0.01},
	{Name: "cpu_us_per_event", Unit: "us", Bound: 0.25},
	{Name: "retained_heap_mb", Unit: "MB", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "failed_ops_share", Unit: "ratio", Bound: 0},
}

// measured is one metric of one workload.  Runs holds the metric of every
// run alone, so their spread can be set against the bound.
type measured struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Runs  []float64 `json:"runs,omitempty"`
}

// report is everything measured about one workload.
type report struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      int64    `json:"seed"`
	Events    int      `json:"events_per_run"`
	TimedRuns int      `json:"timed_runs"`
	Truncated int      `json:"truncated_runs"`
	CalibNs   [2]int64 `json:"calibration_ns"`
	Noisy     bool     `json:"noisy"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Exact are the counters after a fixed number of raises: identical on
	// every run of a commit, whatever the box.
	Exact    counters            `json:"exact"`
	EndToEnd map[string]measured `json:"end_to_end"`
	PerLayer map[string]measured `json:"per_layer,omitempty"`
	// layerOrder keeps the per-layer metrics in the order they are printed.
	layerOrder []string
}

func (rep *report) fail(n uint64, why []string) {
	rep.Failed += n
	rep.Failures = append(rep.Failures, why...)
}

// quietest is the element-wise minimum of the series over their common
// length.  Runs of one seed do the same work in slice i (and time the same
// detection in sample i), and the box's interference only ever adds time,
// so the smallest reading is the best estimate of all of them.
func quietest(series [][]int64) []int64 {
	out := slices.Clone(series[0])
	for _, s := range series[1:] {
		out = out[:min(len(out), len(s))]
		for i := range out {
			out[i] = min(out[i], s[i])
		}
	}
	return out
}

// denoised evaluates f on the quietest series of all runs, and on every
// run alone so the spread of the runs can be set against the bound.
func denoised(series [][]int64, f func([]int64) float64) (value float64, runs []float64) {
	for _, s := range series {
		runs = append(runs, f(s))
	}
	return f(quietest(series)), runs
}

func column(runs []*result, get func(*result) []int64) [][]int64 {
	out := make([][]int64, len(runs))
	for i, r := range runs {
		out[i] = get(r)
	}
	return out
}

func sum(v []int64) (s float64) {
	for _, x := range v {
		s += float64(x)
	}
	return s
}

func perRun(runs []*result, get func(*result) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = get(r)
	}
	return out
}

// meanDetectLatency is the detections-weighted mean event-time detection
// latency over the definitions of a snapshot.
func meanDetectLatency(s snapshot) float64 {
	var sum, n float64
	for _, d := range s.defs {
		sum += float64(d.LatencySum)
		n += float64(d.Detections)
	}
	return ratio(sum, n)
}

// endToEndMetrics derives the end-to-end metrics from the untraced runs of
// one workload and seed; setups are all the runs that built a system for
// it, whatever they did afterwards.
func endToEndMetrics(sp spec, runs, setups []*result, failedShare float64) map[string]measured {
	perSlice := float64(sp.slice)
	walls := column(runs, func(r *result) []int64 { return r.sliceWall })
	cpus := column(runs, func(r *result) []int64 { return r.sliceCPU })
	samples := column(runs, func(r *result) []int64 { return r.samples })
	quantile := func(q float64) func([]int64) float64 {
		return func(v []int64) float64 { return percentile(sortedScaled(v, 1e-3), q) }
	}
	out := map[string]measured{}
	set := func(name string, value float64, runs []float64) {
		out[name] = measured{Value: value, Runs: runs}
	}
	series := func(name string, s [][]int64, f func([]int64) float64) {
		value, runs := denoised(s, f)
		set(name, value, runs)
	}
	medianOf := func(name string, runs []float64) { set(name, median(runs), runs) }
	series("events_per_sec", walls, func(v []int64) float64 { return float64(len(v)) * perSlice / (sum(v) / 1e9) })
	series("cpu_us_per_event", cpus, func(v []int64) float64 { return sum(v) / 1e3 / (float64(len(v)) * perSlice) })
	series("detect_wall_us_p50", samples, quantile(0.50))
	series("detect_wall_us_p95", samples, quantile(0.95))
	medianOf("detect_latency_ticks_mean", perRun(runs, func(r *result) float64 { return meanDetectLatency(r.mid) }))
	medianOf("allocs_per_event", perRun(runs, func(r *result) float64 { return float64(r.mallocs) / float64(r.events) }))
	medianOf("retained_heap_mb", perRun(runs, func(r *result) float64 { return float64(r.retained) / 1e6 }))
	// Set-up is de-noised like the timed region: every set-up does the same
	// work, so it is the quickest build plus the quietest warm-up slices.
	build := slices.Min(perRun(setups, func(r *result) float64 { return float64(r.buildNs) }))
	warm := quietest(column(setups, func(r *result) []int64 { return r.warmWall }))
	set("setup_s", (build+sum(warm))/1e9, perRun(setups, func(r *result) float64 { return float64(r.setupNs) / 1e9 }))
	set("failed_ops_share", failedShare, nil)
	for _, m := range endToEnd {
		v := out[m.Name]
		v.Unit = m.Unit
		out[m.Name] = v
	}
	return out
}

// pairedRatio is the median over slices of b's wall time ÷ a's: how much
// slower b ran the identical work, whatever stalls hit single slices.
func pairedRatio(a, b *result) float64 {
	n := min(len(a.sliceWall), len(b.sliceWall))
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if a.sliceWall[i] > 0 {
			ratios = append(ratios, float64(b.sliceWall[i])/float64(a.sliceWall[i]))
		}
	}
	return median(ratios)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics decomposes the traced run tr by layer.  u is an untraced
// and ob an observed run of the same seed, probes the layer probes shaped
// by tr, refViolations the order violations the plain reference run saw.
func perLayerMetrics(rep *report, sp spec, u, tr, ob *result, probes map[string]float64, refViolations uint64) {
	rep.PerLayer = map[string]measured{}
	add := func(name string, v float64, unit string) {
		rep.PerLayer[name] = measured{Value: v, Unit: unit}
		rep.layerOrder = append(rep.layerOrder, name)
	}
	c := tr.end.counters
	raised := float64(c.Raised)

	// Stage shares of the traced wall, from the harness spans.
	var child [numSpans]float64
	var wall float64
	for _, w := range tr.windows {
		wall += float64(w.end - w.start)
		for s, d := range w.child {
			child[s] += float64(d)
		}
	}
	items := [numSpans]float64{spanRaise: float64(tr.events)}
	for i, st := range tr.end.stages {
		if s := stageSpan(st.Name); s >= 0 {
			items[s] = float64(st.Items - tr.stages0[i].Items)
			// The hook saw every tick since the system was built; so did Busy.
			if busy := float64(st.Busy.Nanoseconds()); math.Abs(float64(tr.hookTotal[s])-busy) > 0.01*busy {
				rep.fail(1, []string{fmt.Sprintf("OnStage total for %s is %d ns, Stats.Stages[].Busy %v", st.Name, tr.hookTotal[s], st.Busy)})
			}
		}
	}
	other := wall
	for s, name := range spanNames {
		add("ddetect."+name+".share", ratio(child[s], wall), "ratio")
		other -= child[s]
	}
	add("pipeline.crank_other.share", ratio(other, wall), "ratio")
	add("ddetect.raise.ns_per_event", ratio(child[spanRaise], items[spanRaise]), "ns")
	for s := spanIngest; s < numSpans; s++ {
		add("ddetect."+spanNames[s]+".ns_per_item", ratio(child[s], items[s]), "ns")
	}
	add("pipeline.crank_other.ns_per_item", ratio(other, float64(len(tr.stepNs))), "ns")
	detectShare := func(w window) float64 { return ratio(float64(w.child[spanDetect]), float64(w.end-w.start)) }
	if n := len(tr.windows); n > 0 {
		// The last window holds the Settle tail; the one before it is the
		// last full one.
		add("ddetect.detect.share_first_window", detectShare(tr.windows[0]), "ratio")
		add("ddetect.detect.share_last_window", detectShare(tr.windows[max(n-2, 0)]), "ratio")
	}

	steps := sortedScaled(tr.stepNs, 1e-3)
	add("pipeline.steps", float64(len(steps)), "count")
	add("pipeline.step_us_p50", percentile(steps, 0.50), "us")
	add("pipeline.step_us_p99", percentile(steps, 0.99), "us")
	add("pipeline.step_us_max", percentile(steps, 1), "us")
	add("detect_wall_us_p99", percentile(sortedScaled(u.samples, 1e-3), 0.99), "us")

	// Traffic, as exact counts.
	add("ddetect.heartbeats_per_event", ratio(float64(c.Heartbeats), raised), "count")
	add("ddetect.forwarded_per_event", ratio(float64(c.Forwarded), raised), "count")
	add("ddetect.detections_per_event", ratio(float64(c.Detections), raised), "count")
	add("ddetect.unconsumed_share", ratio(float64(c.Unconsumed), raised), "ratio")
	add("ddetect.release_latency_ticks_mean", ratio(float64(c.LatencySum), float64(c.Released)), "microticks")
	add("ddetect.release_latency_ticks_max", float64(c.LatencyMax), "microticks")
	for _, leg := range tr.end.legs {
		add("ddetect.leg."+leg.Leg.String()+".mean_ticks", leg.Mean(), "microticks")
	}
	sent := float64(c.Net.Sent)
	add("network.msgs_per_event", ratio(sent, raised), "count")
	add("network.envs_per_msg", ratio(float64(c.Net.Envelopes), sent), "count")
	add("network.retransmit_share", ratio(float64(c.Net.Retransmitted), sent), "ratio")
	add("wire.bytes_per_msg", ratio(float64(c.Net.PayloadBytes), sent), "bytes")
	add("wire.bytes_per_event", ratio(float64(c.Net.PayloadBytes), raised), "bytes")
	add("event.pool.hit_rate", 1-ratio(float64(tr.end.poolMiss), float64(c.PoolGets)), "ratio")
	add("event.pool.gets_per_event", ratio(float64(c.PoolGets), raised), "count")
	add("event.pool.double_puts", float64(c.PoolDoublePuts), "count")
	add("detector.state_size_end", float64(c.StateSize), "count")
	add("detector.nodes", float64(c.Nodes), "count")
	add("detector.shared_subexprs", float64(c.SharedSubexprs), "count")
	add("detector.dropped", float64(c.Dropped), "count")
	add("detector.order_violations", float64(refViolations), "count")
	var sizeSum, sizeN, sizeMax float64
	for size, n := range tr.setSizes {
		if n > 0 {
			sizeSum, sizeN, sizeMax = sizeSum+float64(size)*float64(n), sizeN+float64(n), float64(size)
		}
	}
	add("core.stamp_set_size_mean", ratio(sizeSum, sizeN), "count")
	add("core.stamp_set_size_max", sizeMax, "count")
	add("expr.define_ms_total", float64(tr.defineNs)/1e6, "ms")
	add("expr.define_us_per_def", ratio(float64(tr.defineNs)/1e3, float64(len(tr.end.defs))), "us")
	add("runtime.gc_cycles", float64(tr.gcCycles), "count")
	add("runtime.gc_pause_ms_total", float64(tr.gcPauseNs)/1e6, "ms")
	add("runtime.heap_peak_mb", float64(tr.heapPeak)/1e6, "MB")

	// Probes, and what they predict of the traced wall: probe cost × the
	// traced count of that operation.
	names := make([]string, 0, len(probes))
	for name := range probes {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		add(name, probes[name], "ns")
	}
	wireEnvs := 0.0
	if sp.serialize {
		wireEnvs = float64(c.Net.Envelopes)
	}
	est := func(ns float64) float64 { return ratio(ns*float64(tr.events)/raised, wall) }
	add("budget.wire.share_est", est((probes["wire.probe.encode_ns_per_env"]+probes["wire.probe.decode_ns_per_env"])*wireEnvs), "ratio")
	add("budget.network.share_est", est((probes["network.probe.send_ns_per_msg"]+probes["network.probe.drain_ns_per_msg"])*sent), "ratio")
	add("budget.core.share_est", est(probes["core.probe.rmax_ns"]*float64(c.Detections)+probes["core.probe.rless_ns"]*float64(c.Released)), "ratio")
	add("budget.detector.share_est", est(probes["detector.probe.publish_ns_per_occ"]*float64(c.Released)), "ratio")
	add("budget.event.share_est", est(probes["event.probe.pool_cycle_ns"]*float64(c.PoolGets)), "ratio")

	add("trace.overhead_share", 1-ratio(1, pairedRatio(u, tr)), "ratio")
	add("obs.always_on.eps_ratio", ratio(1, pairedRatio(u, ob)), "ratio")
}

// probeShape reads off a traced run what the probes need to know.
func probeShape(sp spec, seed int64, sched *schedule, tr *result) shape {
	c := tr.end.counters
	return shape{
		sp: sp, seed: seed, sched: sched, setSizes: tr.setSizes,
		hbShare:     ratio(float64(c.Heartbeats), float64(c.Net.Envelopes)),
		envsPerMsg:  int(math.Round(ratio(float64(c.Net.Envelopes), float64(c.Net.Sent)))),
		msgsPerStep: int(math.Round(ratio(float64(c.Net.Sent)*float64(tr.events)/float64(c.Raised), float64(len(tr.stepNs))))),
	}
}
