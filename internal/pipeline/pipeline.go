// Package pipeline is the staged-execution substrate of the distributed
// detector: an explicit sequence of named stages (ingest → transport →
// release → detect → publish) run once per simulated-time tick, each
// stage tick instrumented with counters and wall-clock latency
// histograms.
//
// The package is deliberately generic — a Stage is anything that can
// process one simulated-time tick — so the observability layer plugs into
// the same seam.  Within a tick the Driver runs stages strictly in order
// on the calling goroutine.
package pipeline

import (
	"fmt"
	"math/bits"
	"strings"
	"time"

	"repro/internal/clock"
)

// Stage is one pipeline stage.  Tick processes everything due at the
// (already advanced) simulated time now and returns the number of items
// it handled, for instrumentation.  A stage owns its inter-stage buffers
// while it runs; the Driver guarantees stages of one tick never overlap.
type Stage interface {
	Name() string
	Tick(now clock.Microticks) int
}

// StageEvent is one instrumentation sample: a stage finished its slice of
// a tick.  Hooks receive it synchronously on the crank goroutine, so they
// must be cheap; they are the seam the observability layer plugs into.
type StageEvent struct {
	// Stage is the stage name ("ingest", "transport", …).
	Stage string
	// Now is the simulated time of the tick.
	Now clock.Microticks
	// Items is the number of items the stage processed this tick.
	Items int
	// Elapsed is the wall-clock time the stage spent.
	Elapsed time.Duration
}

// Config parameterizes the staged execution of a system.
type Config struct {
	// OnStage, when non-nil, receives a StageEvent after every stage
	// tick.
	OnStage func(StageEvent)
}

// histBuckets is the number of power-of-two latency buckets; bucket i
// covers elapsed times of [2^i, 2^(i+1)) nanoseconds, the last bucket is
// open-ended (≥ ~2s).
const histBuckets = 32

// Histogram is a power-of-two-bucketed wall-clock latency histogram.
type Histogram struct {
	Counts [histBuckets]uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) { h.Counts[bucketOf(d)]++ }

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]): the
// top of the bucket the quantile falls in.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			return time.Duration(1) << (i + 1)
		}
	}
	return time.Duration(1) << histBuckets
}

// String renders the non-empty buckets compactly, e.g. "<2µs:31 <4µs:8".
func (h *Histogram) String() string {
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "<%v:%d", time.Duration(1)<<(i+1), c)
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// StageStats aggregates one stage's activity across ticks.
type StageStats struct {
	Name  string
	Ticks uint64
	// Items is the total number of items the stage processed.
	Items uint64
	// Busy is the total wall-clock time spent in the stage; MaxTick is
	// the longest single tick.
	Busy    time.Duration
	MaxTick time.Duration
	// Hist buckets per-tick wall-clock latency.
	Hist Histogram
}

// Driver composes stages and turns the crank: one Tick runs every stage
// once, in order, sampling a StageEvent around each.
type Driver struct {
	stages []Stage
	hooks  []func(StageEvent)
	stats  []StageStats
	// now supplies the instants the per-stage latency histograms are
	// built from, as elapsed monotonic time since the driver's epoch — a
	// difference of two readings is all Tick ever uses, and time.Now
	// would read the wall clock as well on every call.  It is
	// instrumentation only: nothing it returns feeds simulated time or
	// detection results, which is why this is the single permitted
	// real-clock read in the engine.
	now func() time.Duration
}

// NewDriver builds a driver over the given stages, run in the given
// order.
func NewDriver(stages ...Stage) *Driver {
	d := &Driver{
		stages: stages,
		stats:  make([]StageStats, len(stages)),
	}
	d.SetNow(nil)
	for i, s := range stages {
		d.stats[i].Name = s.Name()
	}
	return d
}

// SetNow replaces the clock used for stage latency instrumentation — any
// monotonic elapsed-time reading; nil restores the real one — making the
// histograms and per-stage counters testable with a deterministic fake.
func (d *Driver) SetNow(now func() time.Duration) {
	if now == nil {
		epoch := time.Now()
		now = func() time.Duration { return time.Since(epoch) }
	}
	d.now = now
}

// Hook registers an instrumentation hook; hooks run synchronously after
// every stage tick, in registration order.
func (d *Driver) Hook(fn func(StageEvent)) {
	if fn != nil {
		d.hooks = append(d.hooks, fn)
	}
}

// Tick runs every stage once at simulated time now.  The stage boundaries
// are chained — the instant one stage ends is the instant the next starts
// — so a tick reads the clock once per stage plus once; hooks run
// between two stages and are timed out of both by one more read after they
// return.
func (d *Driver) Tick(now clock.Microticks) {
	start := d.now()
	for i, s := range d.stages {
		items := s.Tick(now)
		end := d.now()
		elapsed := end - start
		start = end
		st := &d.stats[i]
		st.Ticks++
		st.Items += uint64(items)
		st.Busy += elapsed
		if elapsed > st.MaxTick {
			st.MaxTick = elapsed
		}
		st.Hist.Observe(elapsed)
		if len(d.hooks) > 0 {
			ev := StageEvent{Stage: st.Name, Now: now, Items: items, Elapsed: elapsed}
			for _, h := range d.hooks {
				h(ev)
			}
			if i+1 < len(d.stages) {
				start = d.now()
			}
		}
	}
}

// Stats returns a snapshot of the per-stage counters, in stage order.
func (d *Driver) Stats() []StageStats {
	out := make([]StageStats, len(d.stats))
	copy(out, d.stats)
	return out
}
