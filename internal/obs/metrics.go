// Package obs is the deterministic observability layer of the detection
// engine: a metrics registry (counters, gauges, fixed-bucket histograms)
// with Prometheus-text and expvar-style JSON exporters, event-lineage
// tracing (span events following every occurrence from raise through
// transport, release, detection and publication), and a flight recorder
// (a bounded ring of recent spans per site, dumped when something goes
// wrong).
//
// The layer is a *pure observer* of the simulation, by construction:
//
//   - every timestamp in a span or metric sample is simulated time
//     (internal/clock microticks) supplied by the caller — the package
//     imports neither time nor math/rand, and the obsfx analyzer keeps it
//     that way;
//   - span IDs are assigned in emission order on the crank goroutine, so
//     they are a deterministic function of the occurrence stream, never of
//     goroutine scheduling;
//   - with no sink attached every instrument degenerates to a nil-receiver
//     no-op: a nil *Counter, *Gauge, *Histogram or *Tracer accepts every
//     method call, does nothing, and allocates nothing, so instrumented
//     hot paths cost one branch when observability is off
//     (BenchmarkDisabledInstruments pins 0 allocs/op).
//
// The determinism regression in internal/ddetect (TestObsDeterminism)
// pins the consequence: the engine's occurrence log is byte-identical
// with the full observability stack attached and detached.
package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Counter is a monotonically increasing metric.  The zero value is ready
// to use; a nil *Counter is a no-op (the disabled-metrics path).  Not
// safe for concurrent use: instruments are updated from the crank
// goroutine only, the same single-writer discipline the engine's Stats
// counters follow.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a metric that can go up and down.  Nil receivers no-op.
type Gauge struct{ v int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket histogram over int64 samples (the engine
// observes simulated durations in microticks).  Bucket i counts samples
// ≤ bounds[i]; one implicit +Inf bucket catches the rest.  Nil receivers
// no-op; Observe allocates nothing.
type Histogram struct {
	bounds []int64
	counts []uint64
	sum    int64
	total  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.total++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has one extra
	// trailing entry for the +Inf bucket.
	Bounds []int64
	Counts []uint64
	Sum    int64
	Total  uint64
}

// Kind classifies a metric sample.
type Kind int

const (
	// KindCounter marks a monotonically increasing sample.
	KindCounter Kind = iota
	// KindGauge marks a point-in-time sample.
	KindGauge
	// KindHistogram marks a bucketed distribution.
	KindHistogram
)

// Sample is one metric reading in a registry snapshot.
type Sample struct {
	Name string
	Kind Kind
	// Value is the counter/gauge/collector reading; unused for
	// histograms.
	Value float64
	// Hist is set for KindHistogram samples.
	Hist *HistogramSnapshot
}

// CollectorFunc is a pull-style metrics source: at snapshot time it is
// handed an emit function and reports (name, value) gauge samples.  It is
// how the engine's pre-existing counter structs (ddetect.Stats,
// pipeline.StageStats, network.Stats) are published through the registry
// without duplicating their bookkeeping on the hot path: the structs stay
// the source of truth and keep their public accessors, the collector
// reads them only when someone exports.  Names ending in "_total" are
// typed as Prometheus counters, everything else as gauges.
type CollectorFunc func(emit func(name string, value float64))

// metric is one registered instrument.
type metric struct {
	name string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named instruments and collectors.  Registration happens
// at setup time (it panics on a duplicate name: a metric name is code,
// not input); updates happen on the crank goroutine; Snapshot and the
// exporters may be called between ticks.  A registry belongs to one
// system: wiring the same registry into two Systems would collide their
// instrument names.
type Registry struct {
	metrics    []metric
	byName     map[string]bool
	collectors []CollectorFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// register guards duplicate names.
func (r *Registry) register(name string, kind Kind) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if r.byName[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.byName[name] = true
	r.metrics = append(r.metrics, metric{name: name, kind: kind})
}

// Counter registers and returns a counter.  On a nil registry it returns
// nil, whose methods no-op — callers register once at setup and never
// branch again.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.register(name, KindCounter)
	c := &Counter{}
	r.metrics[len(r.metrics)-1].c = c
	return c
}

// Gauge registers and returns a gauge (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.register(name, KindGauge)
	g := &Gauge{}
	r.metrics[len(r.metrics)-1].g = g
	return g
}

// Histogram registers and returns a fixed-bucket histogram with the given
// ascending upper bounds (nil on a nil registry).  Names may carry a
// {label="value"} suffix (the per-definition latency histograms do); the
// Prometheus exporter splices the synthesized `le` bucket label into the
// existing label set.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	if i := strings.IndexByte(name, '{'); i >= 0 && !strings.HasSuffix(name, "}") {
		panic(fmt.Sprintf("obs: malformed histogram label suffix in %q", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	r.register(name, KindHistogram)
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.metrics[len(r.metrics)-1].h = h
	return h
}

// RegisterCollector attaches a pull-style source, invoked at every
// snapshot in registration order.  No-op on a nil registry.
func (r *Registry) RegisterCollector(fn CollectorFunc) {
	if r == nil || fn == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
}

// Snapshot reads every instrument and collector and returns the samples
// sorted by name — a deterministic, exporter-independent view.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, len(r.metrics))
	for _, m := range r.metrics {
		s := Sample{Name: m.name, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Value = float64(m.g.Value())
		case KindHistogram:
			s.Hist = &HistogramSnapshot{
				Bounds: append([]int64(nil), m.h.bounds...),
				Counts: append([]uint64(nil), m.h.counts...),
				Sum:    m.h.sum,
				Total:  m.h.total,
			}
		}
		out = append(out, s)
	}
	for _, fn := range r.collectors {
		fn(func(name string, value float64) {
			kind := KindGauge
			if strings.HasSuffix(family(name), "_total") {
				kind = KindCounter
			}
			out = append(out, Sample{Name: name, Kind: kind, Value: value})
		})
	}
	slices.SortStableFunc(out, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// family strips a {label} suffix off a series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelSet returns the inner text of a {label} suffix ("" when plain).
func labelSet(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name[i+1:], "}")
	}
	return ""
}

// fmtFloat renders a sample value the way Prometheus and expvar expect:
// integral values without a decimal point.
func fmtFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: one `# TYPE` line per family, histograms expanded into
// `_bucket{le="..."}`, `_sum` and `_count` series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	typed := make(map[string]bool)
	for _, s := range r.Snapshot() {
		fam := family(s.Name)
		if !typed[fam] {
			typed[fam] = true
			t := "gauge"
			switch {
			case s.Kind == KindHistogram:
				t = "histogram"
			case s.Kind == KindCounter:
				t = "counter"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, t); err != nil {
				return err
			}
		}
		if s.Kind != KindHistogram {
			if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, fmtFloat(s.Value)); err != nil {
				return err
			}
			continue
		}
		lbl := labelSet(s.Name)
		cum := uint64(0)
		for i, c := range s.Hist.Counts {
			cum += c
			le := "+Inf"
			if i < len(s.Hist.Bounds) {
				le = strconv.FormatInt(s.Hist.Bounds[i], 10)
			}
			var err error
			if lbl != "" {
				_, err = fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", fam, lbl, le, cum)
			} else {
				_, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", fam, le, cum)
			}
			if err != nil {
				return err
			}
		}
		var err error
		if lbl != "" {
			_, err = fmt.Fprintf(w, "%s_sum{%s} %d\n%s_count{%s} %d\n", fam, lbl, s.Hist.Sum, fam, lbl, s.Hist.Total)
		} else {
			_, err = fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", fam, s.Hist.Sum, fam, s.Hist.Total)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry as one expvar-style JSON object with
// sorted keys: scalar metrics map to numbers, histograms to
// {"count", "sum", "buckets"} objects keyed by upper bound.
func (r *Registry) WriteJSON(w io.Writer) error {
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, s := range r.Snapshot() {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "\n  %s: ", strconv.Quote(s.Name)); err != nil {
			return err
		}
		if s.Kind != KindHistogram {
			if _, err := io.WriteString(w, fmtFloat(s.Value)); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, `{"count": %d, "sum": %d, "buckets": {`, s.Hist.Total, s.Hist.Sum); err != nil {
			return err
		}
		for j, c := range s.Hist.Counts {
			le := "+Inf"
			if j < len(s.Hist.Bounds) {
				le = strconv.FormatInt(s.Hist.Bounds[j], 10)
			}
			sep := ""
			if j > 0 {
				sep = ", "
			}
			if _, err := fmt.Fprintf(w, "%s%q: %d", sep, le, c); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}}"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}
