package ddetect

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/obs"
)

// attachFlightRecorder arms a flight-recorder-backed tracer on cfg
// (callers check cfg.Trace is still free) and dumps the recorded spans
// into the test log if the test fails — the last moments before the
// anomaly, per site.
func attachFlightRecorder(t testing.TB, cfg *Config, perSite int) *obs.FlightRecorder {
	rec := obs.NewFlightRecorder(perSite)
	cfg.Trace = obs.NewTracer(rec)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		var d bytes.Buffer
		if err := rec.Dump(&d); err == nil && d.Len() > 0 {
			t.Logf("flight recorder (last spans before failure):\n%s", d.String())
		}
	})
	return rec
}

// TestObsDeterminism is the tentpole acceptance test: the full
// observability stack — lineage tracer into span log + flight recorder,
// metrics registry with the system collector — must be a pure observer.
// Across seeds and site counts the occurrence log is byte-identical with
// the stack attached and detached, and the span stream itself is
// byte-identical across pooling modes (span identity is
// generation-stamped) and for every sampling rate (the PR-10 matrix
// below: rates 0/0.1/1 × pooled/unpooled).  Every pooled traced run draws
// from the pool.
func TestObsDeterminism(t *testing.T) {
	for _, seed := range []int64{7, 31} {
		for _, sites := range []int{3, 6} {
			bare := scenarioOpts{sites: sites, count: 250, seed: seed, noObs: true}
			bareLog, bareStats := runScenario(t, bare)
			if bareStats.Detections == 0 {
				t.Fatalf("seed=%d sites=%d: no detections; comparison is vacuous", seed, sites)
			}

			runObs := func(disablePooling bool, rate float64) ([]byte, []byte, *obs.Registry) {
				var spans bytes.Buffer
				var reg *obs.Registry
				var ps event.PoolStats
				o := scenarioOpts{sites: sites, count: 250, seed: seed, noObs: true}
				o.mutate = func(c *Config) {
					c.DisablePooling = disablePooling
					c.Trace = obs.NewTracer(obs.MultiSink{
						obs.NewSpanLog(&spans),
						obs.NewFlightRecorder(16),
					})
					if rate >= 0 {
						c.Sample = obs.NewSampler(42, rate)
					}
					reg = obs.NewRegistry()
					c.Metrics = reg
				}
				o.inspect = func(sys *System) { ps = sys.PoolStats() }
				log, st := runScenario(t, o)
				if st.Detections != bareStats.Detections {
					t.Fatalf("seed=%d sites=%d pooled=%v rate=%v: %d detections with obs, %d without",
						seed, sites, !disablePooling, rate, st.Detections, bareStats.Detections)
				}
				if !disablePooling && ps.Gets == 0 {
					t.Fatalf("seed=%d sites=%d rate=%v: traced run never drew from the pool",
						seed, sites, rate)
				}
				if disablePooling && ps.Gets != 0 {
					t.Fatalf("seed=%d sites=%d rate=%v: DisablePooling still drew %d from the pool",
						seed, sites, rate, ps.Gets)
				}
				return log, spans.Bytes(), reg
			}

			obsLog, spans0, reg := runObs(false, -1)
			if !bytes.Equal(bareLog, obsLog) {
				t.Errorf("seed=%d sites=%d: occurrence log differs with observability attached (%d vs %d bytes)",
					seed, sites, len(obsLog), len(bareLog))
			}
			if len(spans0) == 0 {
				t.Fatalf("seed=%d sites=%d: tracer emitted nothing", seed, sites)
			}
			for _, kind := range []string{"kind=raise", "kind=send", "kind=recv", "kind=release", "kind=detect", "kind=publish"} {
				if !bytes.Contains(spans0, []byte(kind)) {
					t.Errorf("seed=%d sites=%d: span log has no %s events", seed, sites, kind)
				}
			}
			// The metrics bridge must agree with the Stats counters.
			var prom bytes.Buffer
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			wantLine := "sentinel_detections_total " + uitoa(bareStats.Detections)
			if !strings.Contains(prom.String(), wantLine+"\n") {
				t.Errorf("seed=%d sites=%d: prometheus export missing %q", seed, sites, wantLine)
			}
			if !strings.Contains(prom.String(), "sentinel_release_latency_microticks_count") {
				t.Errorf("seed=%d sites=%d: native release histogram missing from export", seed, sites)
			}
			if !strings.Contains(prom.String(), `sentinel_stage_leg_microticks_count{leg="send_to_recv"}`) {
				t.Errorf("seed=%d sites=%d: labeled stage-leg histogram missing from export", seed, sites)
			}

			// Pooling must not perturb the span stream either: span
			// identity is keyed (pointer, generation), so the ID sequence
			// is a function of the occurrence stream alone.
			unpooledLog, spansUnpooled, _ := runObs(true, -1)
			if !bytes.Equal(bareLog, unpooledLog) {
				t.Errorf("seed=%d sites=%d: occurrence log differs traced+DisablePooling", seed, sites)
			}
			if !bytes.Equal(spans0, spansUnpooled) {
				t.Errorf("seed=%d sites=%d: span stream differs traced+pooled (%d bytes) vs traced+DisablePooling (%d bytes)",
					seed, sites, len(spans0), len(spansUnpooled))
			}

			// The sampling matrix runs once (the heaviest combination):
			// for each head rate the eventlog stays byte-identical to bare
			// and the span stream is invariant across pooling.
			if seed != 7 || sites != 6 {
				continue
			}
			for _, rate := range []float64{0, 0.1, 1.0} {
				ref := [][]byte(nil)
				for _, disablePooling := range []bool{false, true} {
					log, spans, _ := runObs(disablePooling, rate)
					if !bytes.Equal(bareLog, log) {
						t.Errorf("rate=%v pooled=%v: occurrence log differs from bare", rate, !disablePooling)
					}
					ref = append(ref, spans)
				}
				if !bytes.Equal(ref[0], ref[1]) {
					t.Errorf("rate=%v: sampled span stream differs pooled (%d bytes) vs unpooled (%d bytes)",
						rate, len(ref[0]), len(ref[1]))
				}
				switch rate {
				case 0:
					if bytes.Contains(ref[0], []byte("kind=raise")) {
						t.Errorf("rate=0: lineage spans leaked through a keep-nothing sampler")
					}
					if !bytes.Contains(ref[0], []byte("kind=note")) {
						t.Errorf("rate=0: stage notes should survive sampling")
					}
				case 1.0:
					if !bytes.Equal(ref[0], spans0) {
						t.Errorf("rate=1: sampled span stream differs from the unsampled one (%d vs %d bytes)",
							len(ref[0]), len(spans0))
					}
				default:
					if !bytes.Contains(ref[0], []byte("kind=raise")) || len(ref[0]) >= len(spans0) {
						t.Errorf("rate=%v: expected a thinned-but-nonempty lineage stream (%d vs %d bytes unsampled)",
							rate, len(ref[0]), len(spans0))
					}
					assertCompleteLineage(t, ref[0])
				}
			}
		}
	}
}

// assertCompleteLineage parses a span log and checks the head-sampling
// lineage guarantee: every ID a detect span links to has already
// appeared in the stream (as a raise, or a recv for serialize-decoded
// constituents) — a sampled detection never references a dropped span.
func assertCompleteLineage(t *testing.T, spans []byte) {
	t.Helper()
	seen := map[string]bool{}
	detects := 0
	for _, line := range strings.Split(string(spans), "\n") {
		fields := strings.Fields(line)
		var id, links string
		for _, f := range fields {
			switch {
			case strings.HasPrefix(f, "id="):
				id = f[len("id="):]
			case strings.HasPrefix(f, "links="):
				links = f[len("links="):]
			}
		}
		if links != "" {
			detects++
			for _, l := range strings.Split(links, ",") {
				if !seen[l] {
					t.Errorf("detect span links id=%s which never appeared: %s", l, line)
				}
			}
		}
		if id != "" && id != "0" {
			seen[id] = true
		}
	}
	if detects == 0 {
		t.Error("no linked detect spans in the sampled stream; lineage check is vacuous")
	}
}

// uitoa avoids fmt in the hot assertion strings above.
func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestObsSerializeMode smokes the tracing caveat documented on
// Config.Trace: in Serialize mode decoded occurrences get fresh span
// IDs, but the occurrence log must still be byte-identical and the
// lineage stages all present.
func TestObsSerializeMode(t *testing.T) {
	bare := scenarioOpts{sites: 3, count: 150, seed: 11, noObs: true,
		mutate: func(c *Config) { c.Serialize = true }}
	bareLog, bareStats := runScenario(t, bare)
	if bareStats.Detections == 0 {
		t.Fatal("no detections; comparison is vacuous")
	}
	var spans bytes.Buffer
	traced := bare
	traced.mutate = func(c *Config) {
		c.Serialize = true
		c.Trace = obs.NewTracer(obs.NewSpanLog(&spans))
	}
	tracedLog, _ := runScenario(t, traced)
	if !bytes.Equal(bareLog, tracedLog) {
		t.Fatal("occurrence log differs with tracing in Serialize mode")
	}
	for _, kind := range []string{"kind=raise", "kind=recv", "kind=detect"} {
		if !bytes.Contains(spans.Bytes(), []byte(kind)) {
			t.Errorf("span log has no %s events", kind)
		}
	}
}

// TestDefStats pins the per-definition latency satellite: detections are
// attributed to their definition with event-time latency aggregates.
func TestDefStats(t *testing.T) {
	o := defaultScenario()
	o.count = 300
	_, st := runScenario(t, o)
	if len(st.Definitions) != 5 {
		t.Fatalf("got %d definition stats, want 5: %+v", len(st.Definitions), st.Definitions)
	}
	var total uint64
	for i, ds := range st.Definitions {
		if i > 0 && st.Definitions[i-1].Name >= ds.Name {
			t.Fatalf("definitions not sorted by name: %+v", st.Definitions)
		}
		total += ds.Detections
		if ds.Detections > 0 {
			if ds.MeanLatency() <= 0 || ds.LatencyMax < clock.Microticks(ds.MeanLatency()) {
				t.Errorf("%s: implausible latency mean=%.1f max=%d", ds.Name, ds.MeanLatency(), ds.LatencyMax)
			}
		} else if ds.MeanLatency() != 0 {
			t.Errorf("%s: zero detections but mean latency %f", ds.Name, ds.MeanLatency())
		}
	}
	if total != st.Detections {
		t.Fatalf("per-definition detections sum to %d, stats say %d", total, st.Detections)
	}
}

// TestTracerUnsunkIsInert pins the overhead mode used by the smoke
// benchmark: a tracer with no sink changes nothing and emits nothing.
func TestTracerUnsunkIsInert(t *testing.T) {
	bare := scenarioOpts{sites: 3, count: 150, seed: 19, noObs: true}
	bareLog, _ := runScenario(t, bare)
	unsunk := bare
	unsunk.mutate = func(c *Config) { c.Trace = obs.NewTracer(nil) }
	unsunkLog, _ := runScenario(t, unsunk)
	if !bytes.Equal(bareLog, unsunkLog) {
		t.Fatal("enabled-but-unsunk tracer perturbed the occurrence log")
	}
}

// TestMetricsJSONExportFromSystem smokes the expvar-style exporter on a
// live system registry (format details are pinned in internal/obs).
func TestMetricsJSONExportFromSystem(t *testing.T) {
	reg := obs.NewRegistry()
	o := scenarioOpts{sites: 3, count: 100, seed: 3, noObs: true,
		mutate: func(c *Config) { c.Metrics = reg }}
	_, st := runScenario(t, o)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"sentinel_raised_total": `+uitoa(st.Raised)) {
		t.Fatalf("JSON export missing raised counter:\n%s", buf.String())
	}
	if _, err := io.Copy(io.Discard, &buf); err != nil {
		t.Fatal(err)
	}
}
