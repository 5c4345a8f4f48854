package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Total() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments leaked state: %d %d %d", c.Value(), g.Value(), h.Total())
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Histogram("z", 1) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.RegisterCollector(func(func(string, float64)) { t.Fatal("collector on nil registry") })
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %v", s)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup")
	r.Gauge("dup")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 10, 100, 1000)
	for _, v := range []int64{0, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Hist == nil {
		t.Fatalf("snapshot = %+v", snap)
	}
	got := snap[0].Hist.Counts
	want := []uint64{2, 3, 0, 1} // ≤10: {0,10}; ≤100: {11,99,100}; ≤1000: {}; +Inf: {5000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if snap[0].Hist.Total != 6 || snap[0].Hist.Sum != 5220 {
		t.Fatalf("total=%d sum=%d", snap[0].Hist.Total, snap[0].Hist.Sum)
	}
}

func TestSnapshotSortedAndCollectorTyping(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(4)
	r.Gauge("aa").Set(-2)
	r.RegisterCollector(func(emit func(string, float64)) {
		emit("mm_total", 9)
		emit(`kk{stage="detect"}`, 1.5)
	})
	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, s := range snap {
		names[i] = s.Name
	}
	want := []string{"aa", `kk{stage="detect"}`, "mm_total", "zz_total"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
	if snap[2].Kind != KindCounter {
		t.Fatal("collector sample ending in _total should be a counter")
	}
	if snap[1].Kind != KindGauge {
		t.Fatal("labelled collector sample should default to gauge")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(12)
	r.Gauge("inflight").Set(3)
	r.Histogram("lat", 10, 100).Observe(7)
	r.RegisterCollector(func(emit func(string, float64)) {
		emit(`stage_items_total{stage="detect"}`, 5)
		emit(`stage_items_total{stage="ingest"}`, 8)
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE events_total counter
events_total 12
# TYPE inflight gauge
inflight 3
# TYPE lat histogram
lat_bucket{le="10"} 1
lat_bucket{le="100"} 1
lat_bucket{le="+Inf"} 1
lat_sum 7
lat_count 1
# TYPE stage_items_total counter
stage_items_total{stage="detect"} 5
stage_items_total{stage="ingest"} 8
`
	if buf.String() != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestWritePrometheusLabeledHistogram pins the labeled-histogram
// rendering: the le bucket label is spliced into the declared label set
// and the family line strips the labels.
func TestWritePrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`leg_microticks{leg="send_to_recv"}`, 10, 100)
	h.Observe(7)
	h.Observe(70)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE leg_microticks histogram
leg_microticks_bucket{leg="send_to_recv",le="10"} 1
leg_microticks_bucket{leg="send_to_recv",le="100"} 2
leg_microticks_bucket{leg="send_to_recv",le="+Inf"} 2
leg_microticks_sum{leg="send_to_recv"} 77
leg_microticks_count{leg="send_to_recv"} 2
`
	if buf.String() != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestHistogramMalformedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("malformed label suffix did not panic")
		}
	}()
	NewRegistry().Histogram(`bad{leg="x"`, 10)
}

// TestRuntimeCollector smoke-tests the opt-in process-health collector:
// it registers without colliding and reports a plausible live heap.
func TestRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeCollector(r)
	snap := r.Snapshot()
	got := map[string]float64{}
	for _, s := range snap {
		got[s.Name] = s.Value
		if s.Name == "go_gc_cycles_total" && s.Kind != KindCounter {
			t.Fatal("go_gc_cycles_total should be typed as a counter")
		}
	}
	for _, name := range []string{
		"go_heap_alloc_bytes", "go_heap_objects", "go_heap_sys_bytes",
		"go_gc_cycles_total", "go_gc_pause_ns_total", "go_alloc_bytes_total",
		"go_goroutines",
	} {
		if _, ok := got[name]; !ok {
			t.Fatalf("runtime collector missing %s (snapshot %v)", name, got)
		}
	}
	if got["go_heap_alloc_bytes"] <= 0 || got["go_goroutines"] < 1 {
		t.Fatalf("implausible runtime sample: heap=%v goroutines=%v",
			got["go_heap_alloc_bytes"], got["go_goroutines"])
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Histogram("h", 5).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if decoded["a_total"] != float64(2) {
		t.Fatalf("a_total = %v", decoded["a_total"])
	}
	h, ok := decoded["h"].(map[string]any)
	if !ok || h["count"] != float64(1) || h["sum"] != float64(3) {
		t.Fatalf("h = %v", decoded["h"])
	}
	buckets, _ := h["buckets"].(map[string]any)
	if buckets["5"] != float64(1) || buckets["+Inf"] != float64(0) {
		t.Fatalf("buckets = %v", buckets)
	}
}

func TestTracerIDs(t *testing.T) {
	var nilT *Tracer
	if nilT.Active() || nilT.ID("x", 0) != 0 {
		t.Fatal("nil tracer must be inert")
	}
	nilT.Emit(SpanEvent{})

	unsunk := NewTracer(nil)
	if unsunk.Active() || unsunk.ID("x", 0) != 0 {
		t.Fatal("unsunk tracer must skip ID bookkeeping along with emission")
	}
	unsunk.Emit(SpanEvent{ID: 1}) // unsunk: dropped, must not panic

	tr := NewTracer(discardSink{})
	a, b := &struct{ int }{1}, &struct{ int }{1}
	if tr.ID(a, 0) != 1 || tr.ID(b, 0) != 2 || tr.ID(a, 0) != 1 {
		t.Fatal("IDs not sequential/stable by identity")
	}
	// Generation-stamped reuse: the same pointer at a later pool
	// generation is a different lifetime and must get a fresh span ID,
	// while the old (pointer, generation) key keeps answering for the
	// spans already emitted.
	if tr.ID(a, 1) != 3 || tr.ID(a, 0) != 1 || tr.ID(a, 1) != 3 {
		t.Fatal("generation must separate lifetimes of a recycled pointer")
	}
}

// discardSink consumes spans without recording them.
type discardSink struct{}

func (discardSink) Span(SpanEvent) {}

func TestSpanLogFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewSpanLog(&buf)
	tr := NewTracer(l)
	if !tr.Active() {
		t.Fatal("sunk tracer inactive")
	}
	tr.Emit(SpanEvent{ID: 1, At: 420, Kind: KindRaise, Site: "s1", Type: "A", Detail: "{(s1 4 2)}"})
	tr.Emit(SpanEvent{ID: 3, At: 900, Kind: KindDetect, Site: "s2", Type: "AB", Links: []uint64{1, 2}})
	tr.Emit(SpanEvent{ID: 1, At: 500, Kind: KindSend, Site: "s1", Peer: "s2", Type: "A"})
	want := `at=420 kind=raise id=1 site=s1 type=A detail="{(s1 4 2)}"
at=900 kind=detect id=3 site=s2 type=AB links=1,2
at=500 kind=send id=1 site=s1 peer=s2 type=A
`
	if buf.String() != want {
		t.Fatalf("span log:\n%s\nwant:\n%s", buf.String(), want)
	}
	if l.Err() != nil {
		t.Fatal(l.Err())
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	c := NewChromeTrace(&buf)
	c.Span(SpanEvent{ID: 1, At: 100, Kind: KindRaise, Site: "s1", Type: "A", Detail: "{(s1 1 1)}"})
	c.Span(SpanEvent{ID: 2, At: 150, Kind: KindRecv, Site: "s2", Peer: "s1", Type: "A"})
	c.Span(SpanEvent{ID: 3, At: 200, Kind: KindDetect, Site: "s2", Type: "AB", Links: []uint64{1, 2}})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("invalid trace JSON %q: %v", buf.String(), err)
	}
	// 2 thread_name metadata records + 3 instant events.
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5: %v", len(recs), recs)
	}
	if recs[0]["ph"] != "M" || recs[0]["name"] != "thread_name" {
		t.Fatalf("first record should name the track: %v", recs[0])
	}
	detect := recs[4]
	if detect["ph"] != "i" || detect["ts"] != float64(200) || detect["name"] != "detect AB" {
		t.Fatalf("detect record = %v", detect)
	}
	args := detect["args"].(map[string]any)
	links := args["links"].([]any)
	if len(links) != 2 || links[0] != float64(1) {
		t.Fatalf("links = %v", links)
	}
	// Both events on s2 must share a tid distinct from s1's.
	if recs[1]["tid"] == recs[3]["tid"] || recs[3]["tid"] != recs[4]["tid"] {
		t.Fatalf("tid assignment wrong: %v %v %v", recs[1]["tid"], recs[3]["tid"], recs[4]["tid"])
	}
}

// chromeTids parses a trace and returns the site → tid assignment from
// its thread_name metadata records.
func chromeTids(t *testing.T, raw []byte) map[string]float64 {
	t.Helper()
	var recs []map[string]any
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatalf("invalid trace JSON %q: %v", raw, err)
	}
	tids := make(map[string]float64)
	for _, r := range recs {
		if r["ph"] == "M" && r["name"] == "thread_name" {
			args := r["args"].(map[string]any)
			tids[args["name"].(string)] = r["tid"].(float64)
		}
	}
	return tids
}

// TestChromeTraceRosterStableTids pins the UseRoster contract: thread IDs
// are a function of the sealed membership alone, so two runs whose sites
// speak in different orders still number every track identically (the
// first-seen fallback, by contrast, assigns tids in arrival order).
func TestChromeTraceRosterStableTids(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b", "c"})
	run := func(order []string) (map[string]float64, int) {
		var buf bytes.Buffer
		c := NewChromeTrace(&buf)
		c.UseRoster(roster)
		for i, site := range order {
			ref := int32(roster.MustSite(core.SiteID(site))) + 1
			c.Span(SpanEvent{ID: uint64(i + 1), At: int64(i * 10), Kind: KindRaise, Site: site, SiteRef: ref, Type: "A"})
		}
		c.Span(SpanEvent{At: 99, Kind: KindNote, Detail: "tick"}) // system track
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		var recs []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
			t.Fatalf("invalid trace JSON: %v", err)
		}
		return chromeTids(t, buf.Bytes()), len(recs)
	}
	first, n1 := run([]string{"c", "a", "b"})
	second, n2 := run([]string{"b", "c", "a"})
	if n1 != n2 {
		t.Fatalf("record counts differ: %d vs %d", n1, n2)
	}
	want := map[string]float64{"a": 1, "b": 2, "c": 3, "(system)": 4}
	for site, tid := range want {
		if first[site] != tid || second[site] != tid {
			t.Fatalf("tid[%s] = %v / %v across runs, want %v (map %v)", site, first[site], second[site], tid, first)
		}
	}
}

// TestFlightRecorderRosterKeying pins the dense-ring contract: a
// SiteRef-carrying span and a Note addressed by site name share one ring.
func TestFlightRecorderRosterKeying(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b"})
	f := NewFlightRecorder(4)
	f.UseRoster(roster)
	ref := int32(roster.MustSite("b")) + 1
	f.Span(SpanEvent{ID: 1, At: 10, Kind: KindRelease, Site: "b", SiteRef: ref, Type: "A"})
	f.Note("b", 20, "checkpoint")
	f.Note("", 30, "tick done")            // system ring
	f.Note("zz", 40, "off-roster visitor") // name-keyed fallback
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	want := `-- site (system): last 1 span(s), 0 dropped --
at=30 kind=note id=0 detail="tick done"
-- site b: last 2 span(s), 0 dropped --
at=10 kind=release id=1 site=b type=A
at=20 kind=note id=0 site=b detail="checkpoint"
-- site zz: last 1 span(s), 0 dropped --
at=40 kind=note id=0 site=zz detail="off-roster visitor"
`
	if buf.String() != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	var a, b bytes.Buffer
	m := MultiSink{NewSpanLog(&a), NewSpanLog(&b)}
	m.Span(SpanEvent{ID: 1, At: 5, Kind: KindNote, Detail: "x"})
	if a.String() != b.String() || a.Len() == 0 {
		t.Fatalf("fan-out mismatch: %q vs %q", a.String(), b.String())
	}
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	f := NewFlightRecorder(3)
	links := []uint64{9}
	for i := 1; i <= 5; i++ {
		f.Span(SpanEvent{ID: uint64(i), At: int64(i * 10), Kind: KindRelease, Site: "s1", Type: "A", Links: links})
	}
	links[0] = 77 // recorder must have copied, not aliased
	f.Note("", 60, "tick 6 done")
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want 4", f.Len())
	}
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `-- site (system): last 1 span(s), 0 dropped --
at=60 kind=note id=0 detail="tick 6 done"
-- site s1: last 3 span(s), 2 dropped --
at=30 kind=release id=3 site=s1 type=A links=9
at=40 kind=release id=4 site=s1 type=A links=9
at=50 kind=release id=5 site=s1 type=A links=9
`
	if out != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", out, want)
	}
	if strings.Contains(out, "77") {
		t.Fatal("ring aliased the Links slice")
	}
}

// TestInstrumentAllocs pins what an instrument call allocates: nothing
// on the disabled (nil-receiver) path, and nothing on the live
// single-writer counter and histogram path either.
func TestInstrumentAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		h.Observe(1)
		if tr.Active() {
			t.Fatal("unreachable")
		}
		tr.Emit(SpanEvent{Kind: KindSend})
	}); n != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", n)
	}
	r := NewRegistry()
	c = r.Counter("ops_total")
	h = r.Histogram("lat", 8, 64, 512, 4096)
	i := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		i++
		h.Observe(i & 1023)
	}); n != 0 {
		t.Errorf("enabled counters allocate %v per op, want 0", n)
	}
}

// BenchmarkDisabledInstruments times the disabled metrics/tracing path.
func BenchmarkDisabledInstruments(b *testing.B) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		c.Add(2)
		g.Set(int64(i))
		h.Observe(int64(i))
		if tr.Active() {
			b.Fatal("unreachable")
		}
		tr.Emit(SpanEvent{ID: 1, At: int64(i), Kind: KindRaise})
	}
}

// BenchmarkEnabledCounters measures the live single-writer hot path.
func BenchmarkEnabledCounters(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	h := r.Histogram("lat", 8, 64, 512, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i & 1023))
	}
}
