package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func runSim(t *testing.T, o options) string {
	t.Helper()
	var b strings.Builder
	simulate(&b, o)
	return b.String()
}

func baseOptions() options {
	return options{
		sites: 3, events: 300, meanGap: 60,
		latency: 20, jitter: 40, drop: 0, skew: 30, seed: 42,
		sample: -1, // negative = keep every span (the -sample flag default)
	}
}

func TestSimulateReportShape(t *testing.T) {
	out := runSim(t, baseOptions())
	for _, want := range []string{
		"sites=3 events=300",
		"released=300",
		"transport: messages=",
		"coalescing=",
		"detections per definition",
		"Seq", "Conj", "Guard", "Sweep",
		"composite timestamp set sizes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "unconsumed=0") {
		t.Errorf("all four event types feed definitions; none should be unconsumed:\n%s", out)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := runSim(t, baseOptions())
	b := runSim(t, baseOptions())
	if a != b {
		t.Fatalf("same options produced different reports:\n%s\n---\n%s", a, b)
	}
}

func TestSimulateWithAdversity(t *testing.T) {
	o := baseOptions()
	o.drop = 0.1
	o.jitter = 120
	out := runSim(t, o)
	if !strings.Contains(out, "released=300") {
		t.Errorf("adversity lost events:\n%s", out)
	}
	if strings.Contains(out, "retransmitted=0") {
		t.Errorf("10%% drop should retransmit:\n%s", out)
	}
}

// TestValidateRejectsBadFlags pins that every flag value the simulation
// would panic on is refused up front with a one-line error naming the flag
// (main prints it and exits 2), and that the defaults' neighbours pass.
func TestValidateRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*options)
		want   string // substring of the error; "" means valid
	}{
		{"defaults", func(o *options) {}, ""},
		{"skew at Π/2", func(o *options) { o.skew = 49 }, ""},
		{"drop with zero latency", func(o *options) { o.drop = 0.5; o.latency = 0 }, ""},
		{"metrics", func(o *options) { o.metrics = "xml" }, "-metrics"},
		{"sample", func(o *options) { o.sample = 1.5 }, "-sample"},
		{"overlap", func(o *options) { o.overlap = -0.1 }, "-overlap"},
		{"sites 0", func(o *options) { o.sites = 0 }, "-sites"},
		{"events 0", func(o *options) { o.events = 0 }, "-events"},
		{"gap 0", func(o *options) { o.meanGap = 0 }, "-gap"},
		{"skew 5000", func(o *options) { o.skew = 5000 }, "-skew"},
		{"skew just past Π/2", func(o *options) { o.skew = 50 }, "-skew"},
		{"skew negative", func(o *options) { o.skew = -1 }, "-skew"},
		{"drop 1", func(o *options) { o.drop = 1 }, "DropRate"},
		{"latency -5", func(o *options) { o.latency = -5 }, "negative delay"},
		{"jitter -1", func(o *options) { o.jitter = -1 }, "negative delay"},
	} {
		o := baseOptions()
		tc.mutate(&o)
		err := o.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && (!strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n")):
			t.Errorf("%s: error %q, want one line mentioning %q", tc.name, err, tc.want)
		}
		if tc.want == "" {
			runSim(t, o) // what validate accepts must not panic
		}
	}
}

// TestSimulateCoalesces pins that the batched transport actually batches
// on a multi-site run: strictly fewer bus messages than envelopes.
func TestSimulateCoalesces(t *testing.T) {
	out := runSim(t, baseOptions())
	var msgs, envs int
	if _, err := fmt.Sscanf(out[strings.Index(out, "transport:"):],
		"transport: messages=%d envelopes=%d", &msgs, &envs); err != nil {
		t.Fatalf("cannot parse transport line: %v\n%s", err, out)
	}
	if msgs == 0 || envs <= msgs {
		t.Fatalf("no coalescing: messages=%d envelopes=%d\n%s", msgs, envs, out)
	}
}

// TestSimulatePerDefinitionLatency pins the per-definition latency
// satellite: every definition row carries mean/max detection latency,
// and rows with detections have non-zero latency.
func TestSimulatePerDefinitionLatency(t *testing.T) {
	out := runSim(t, baseOptions())
	sec := out[strings.Index(out, "detections per definition"):]
	for _, def := range []string{"Seq", "Conj", "Guard", "Sweep"} {
		var n, max int
		var mean float64
		if _, err := fmt.Sscanf(sec[strings.Index(sec, def):],
			def+" %d latency mean=%f max=%d", &n, &mean, &max); err != nil {
			t.Fatalf("cannot parse %s row: %v\n%s", def, err, sec)
		}
		if n > 0 && (mean <= 0 || max < int(mean)) {
			t.Errorf("%s: %d detections but implausible latency mean=%.1f max=%d", def, n, mean, max)
		}
	}
}

// TestSimulateObservabilityIsPureObserver pins the tentpole claim at the
// CLI level: the report is identical with every observability sink armed
// versus none.
func TestSimulateObservabilityIsPureObserver(t *testing.T) {
	bare := runSim(t, baseOptions())

	o := baseOptions()
	var trace, spans strings.Builder
	o.trace = &trace
	o.spanlog = &spans
	o.flightrec = 8
	o.metrics = "prom"
	full := runSim(t, o)

	// The armed report is the bare report plus the metrics and flight
	// recorder sections appended.
	if !strings.HasPrefix(full, bare) {
		t.Fatalf("observability flags perturbed the base report:\n%s\n--- want prefix ---\n%s", full, bare)
	}
	if !strings.Contains(full, "metrics (prom):") || !strings.Contains(full, "sentinel_detections_total") {
		t.Errorf("metrics section missing:\n%s", full)
	}
	if !strings.Contains(full, "flight recorder (last 8 spans per site):") {
		t.Errorf("flight recorder section missing:\n%s", full)
	}
	if !strings.Contains(full, "kind=") {
		t.Errorf("flight recorder dumped no spans:\n%s", full)
	}

	// The Chrome trace must be loadable JSON; the span log greppable.
	var recs []map[string]any
	if err := json.Unmarshal([]byte(trace.String()), &recs); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("-trace output is empty")
	}
	for _, kind := range []string{"kind=raise", "kind=send", "kind=recv", "kind=release", "kind=detect", "kind=publish"} {
		if !strings.Contains(spans.String(), kind) {
			t.Errorf("-spanlog lacks %s events", kind)
		}
	}
}

// TestSimulateMetricsJSON pins the expvar-style export end to end.
func TestSimulateMetricsJSON(t *testing.T) {
	o := baseOptions()
	o.metrics = "json"
	out := runSim(t, o)
	blob := out[strings.Index(out, "metrics (json):")+len("metrics (json):"):]
	var decoded map[string]any
	if err := json.Unmarshal([]byte(blob), &decoded); err != nil {
		t.Fatalf("-metrics json output invalid: %v\n%s", err, blob)
	}
	if decoded["sentinel_released_total"] != float64(300) {
		t.Errorf("sentinel_released_total = %v, want 300", decoded["sentinel_released_total"])
	}
	if _, ok := decoded["sentinel_detect_latency_microticks"]; !ok {
		t.Errorf("native detect-latency histogram missing from export")
	}
}

// TestSimulateObsDeterministic pins that the span log and metrics export
// are themselves deterministic run to run.
func TestSimulateObsDeterministic(t *testing.T) {
	run := func() (string, string) {
		o := baseOptions()
		var spans strings.Builder
		o.spanlog = &spans
		o.metrics = "prom"
		return runSim(t, o), spans.String()
	}
	repA, spansA := run()
	repB, spansB := run()
	if repA != repB {
		t.Fatal("reports with metrics differ across identical runs")
	}
	if spansA != spansB || spansA == "" {
		t.Fatal("span logs differ across identical runs (or are empty)")
	}
}

// TestSimulateMultiTenant pins the -defs mode: a generated definition
// set replaces the fixed four, the report switches to the aggregate
// summary, and the run stays deterministic.
func TestSimulateMultiTenant(t *testing.T) {
	o := baseOptions()
	o.sites = 4
	o.events = 400
	o.defs = 100
	o.overlap = 0.5
	out := runSim(t, o)
	// Definitions are hosted round-robin across all 4 sites, so every
	// site consumes (and releases) the full stream: 4 x 400.
	for _, want := range []string{
		"definitions=100 overlap=0.50 alphabet=12 (multi-tenant mode)",
		"released=1600",
		"definitions with detections:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-tenant report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "detections per definition") {
		t.Errorf("multi-tenant mode should summarize, not list per-definition rows:\n%s", out)
	}
	var active, totalDefs, detections int
	if _, err := fmt.Sscanf(out[strings.Index(out, "definitions with detections"):],
		"definitions with detections: %d/%d (total %d)", &active, &totalDefs, &detections); err != nil {
		t.Fatalf("cannot parse summary line: %v\n%s", err, out)
	}
	if totalDefs != 100 || active == 0 || detections == 0 {
		t.Fatalf("multi-tenant run detected nothing: active=%d/%d total=%d", active, totalDefs, detections)
	}
	if again := runSim(t, o); again != out {
		t.Fatalf("multi-tenant run not deterministic:\n%s\n---\n%s", again, out)
	}
	unshared := o
	unshared.noSharing = true
	if diff := runSim(t, unshared); diff != out {
		t.Fatalf("-no-sharing changed the report:\n%s\n---\n%s", diff, out)
	}
}

func TestSimulateStatsSection(t *testing.T) {
	o := baseOptions()
	o.stats = true
	out := runSim(t, o)
	for _, want := range []string{
		"pipeline stages", "ingest", "transport", "release", "detect", "publish",
		"occurrence pool: gets=",
		"stage legs", "raise_to_send", "send_to_recv", "recv_to_release", "release_to_publish",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "tracer attached") {
		t.Errorf("stale pool/tracer interlock wording in report:\n%s", out)
	}
}

// TestSimulateSampledTrace pins the -sample flag: the report is identical
// at every rate, rate 0 suppresses lineage spans entirely, and a partial
// rate thins the span log without breaking it.
func TestSimulateSampledTrace(t *testing.T) {
	bare := runSim(t, baseOptions())
	run := func(rate float64) (string, string) {
		o := baseOptions()
		var spans strings.Builder
		o.spanlog = &spans
		o.sample = rate
		return runSim(t, o), spans.String()
	}
	repFull, spansFull := run(1)
	repNone, spansNone := run(0)
	repSome, spansSome := run(0.1)
	for rate, rep := range map[float64]string{1: repFull, 0: repNone, 0.1: repSome} {
		if rep != bare {
			t.Errorf("-sample %g perturbed the report:\n%s\n---\n%s", rate, rep, bare)
		}
	}
	if strings.Contains(spansNone, "kind=raise") {
		t.Error("-sample 0 still emitted lineage spans")
	}
	if !strings.Contains(spansSome, "kind=raise") || len(spansSome) >= len(spansFull) {
		t.Errorf("-sample 0.1 should thin the span log: %d vs %d bytes at rate 1",
			len(spansSome), len(spansFull))
	}
	if _, again := run(0.1); again != spansSome {
		t.Error("sampled span log not deterministic run to run")
	}
}

// TestSimulatePprof pins the -pprof flag: a heap profile lands in the
// destination and the runtime collectors join the metrics export.
func TestSimulatePprof(t *testing.T) {
	o := baseOptions()
	var profile strings.Builder
	o.pprof = &profile
	o.metrics = "prom"
	out := runSim(t, o)
	if profile.Len() == 0 {
		t.Fatal("-pprof wrote no heap profile")
	}
	for _, want := range []string{"go_heap_alloc_bytes", "go_gc_cycles_total", "go_goroutines"} {
		if !strings.Contains(out, want) {
			t.Errorf("-pprof -metrics export lacks runtime sample %q", want)
		}
	}
}
