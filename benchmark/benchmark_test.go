package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.95, 48}, {0.125, 15},
	} {
		if got := percentile(v, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	// Quartiles as statistics.quantiles(v, n=4) gives them.
	for _, tc := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{95, 100, 105}, 0.1},
		{[]float64{1, 2, 3, 4, 5}, (4.5 - 1.5) / 3},
		{[]float64{10, 12, 11, 13, 40, 9, 12, 11, 10, 12}, (12.25 - 10) / 11.5},
		{[]float64{7, 9}, (9.0 - 7) / 8},
		{[]float64{5}, 0},
	} {
		if got := spread(tc.v); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("spread(%v) = %g, want %g", tc.v, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"end to end", []span{{Start: 100, End: 130}, {Start: 130, End: 150}}, 50},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"sticking out is clipped", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside", []span{{Start: 0, End: 100}, {Start: 200, End: 300}}, 100},
		{"unsorted", []span{{Start: 180, End: 200}, {Start: 100, End: 120}}, 60},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The span tree of a run tiles each window with its children from the
// window's start, so a window's self time is what the children leave.
func TestSpansSelfTimeIsCrankOther(t *testing.T) {
	windows := []window{
		{start: 1000, end: 2000, child: [numSpans]int64{100, 200, 50, 25, 300, 75}},
		{start: 2010, end: 2500, child: [numSpans]int64{10, 20, 30, 40, 50, 60}},
	}
	sp := spans("w", windows)
	if len(sp) != 2*(numSpans+1) {
		t.Fatalf("%d spans, want %d", len(sp), 2*(numSpans+1))
	}
	for k, w := range windows {
		parent := sp[k*(numSpans+1)]
		children := sp[k*(numSpans+1)+1 : (k+1)*(numSpans+1)]
		if parent.Name != "window" || parent.Parent != 0 {
			t.Fatalf("span %d is %+v, want a root window", parent.ID, parent)
		}
		var busy int64
		for c, ch := range children {
			if ch.Parent != parent.ID || ch.Name != spanNames[c] || ch.End-ch.Start != w.child[c] {
				t.Errorf("window %d child %d = %+v", k, c, ch)
			}
			busy += w.child[c]
		}
		if got, want := selfTime(parent, children), w.end-w.start-busy; got != want {
			t.Errorf("window %d self time %d, want %d", k, got, want)
		}
	}
	if sp[0].Start != 0 || sp[numSpans+1].Start != 1010 {
		t.Errorf("spans are not relative to the first window: %d, %d", sp[0].Start, sp[numSpans+1].Start)
	}
}

func TestDetectionDigest(t *testing.T) {
	a := core.SetStamp{{Site: "site00", Global: 7, Local: 71}, {Site: "site03", Global: 7, Local: 75}}
	b := core.SetStamp{{Site: "site01", Global: 9, Local: 90}}
	if detectionHash(0, a)+detectionHash(1, b) != detectionHash(1, b)+detectionHash(0, a) {
		t.Fatal("digest depends on detection order")
	}
	swapped := core.SetStamp{a[1], a[0]}
	if detectionHash(0, a) != detectionHash(0, swapped) {
		t.Error("digest depends on component order")
	}
	for name, other := range map[string]uint64{
		"definition": detectionHash(1, a),
		"site":       detectionHash(0, core.SetStamp{{Site: "site01", Global: 7, Local: 71}, a[1]}),
		"global":     detectionHash(0, core.SetStamp{{Site: "site00", Global: 8, Local: 71}, a[1]}),
		"local":      detectionHash(0, core.SetStamp{{Site: "site00", Global: 7, Local: 72}, a[1]}),
		"component":  detectionHash(0, a[:1]),
		// Swapping global and local between fields must not cancel out.
		"fields": detectionHash(0, core.SetStamp{{Site: "site00", Global: 71, Local: 7}, a[1]}),
	} {
		if other == detectionHash(0, a) {
			t.Errorf("digest ignores the %s", name)
		}
	}
}

func TestQuietestAndDenoised(t *testing.T) {
	a, b, c := []int64{5, 9, 5, 100}, []int64{6, 4, 5}, []int64{50, 50, 1}
	if got := quietest([][]int64{a, b}); len(got) != 3 || got[0] != 5 || got[1] != 4 || got[2] != 5 {
		t.Errorf("quietest of two = %v", got)
	}
	if a[1] != 9 {
		t.Error("quietest changed its input")
	}
	value, runs := denoised([][]int64{a, b, c}, sum)
	if value != 5+4+1 {
		t.Errorf("denoised value %g, want 10", value)
	}
	if len(runs) != 3 || runs[0] != 119 || runs[1] != 15 || runs[2] != 101 {
		t.Errorf("per-run values %v", runs)
	}
	if value, runs := denoised([][]int64{a}, sum); value != 119 || len(runs) != 1 {
		t.Errorf("one run: %g %v", value, runs)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Bound: 0.10}
	higher := metricDef{Name: "rate", HigherBetter: true, Bound: 0.05}
	allocs := metricDef{Name: "allocs", Bound: 0.02, Slack: 0.01}
	exact := metricDef{Name: "failed", Bound: 0}
	m := func(v float64, runs ...float64) measured { return measured{Value: v, Runs: runs} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b measured
		want verdict
	}{
		{"within bound", lower, m(100, 99, 100, 101), m(105, 104, 105, 106), same},
		{"worse", lower, m(100, 99, 100, 101), m(120, 119, 120, 121), worse},
		{"better", lower, m(100, 99, 100, 101), m(80, 79, 80, 81), better},
		{"higher is better: drop is worse", higher, m(1000, 990, 1000, 1010), m(900, 890, 900, 910), worse},
		{"higher is better: rise is better", higher, m(1000, 990, 1000, 1010), m(1100, 1090, 1100, 1110), better},
		{"wide and interleaved", lower, m(100, 80, 100, 125), m(112, 90, 112, 130), unresolved},
		{"wide but apart", lower, m(100, 80, 100, 110), m(150, 130, 150, 190), worse},
		{"wide, apart, inside the bound", lower, m(100, 99, 100, 101), m(104, 102, 104, 120), same},
		{"absolute slack", allocs, m(0.125), m(0.134), same},
		{"beyond the slack", allocs, m(0.125), m(0.14), worse},
		{"any increase", exact, m(0), m(0.0001), worse},
		{"no increase", exact, m(0), m(0), same},
		{"single runs fall back to the medians", lower, m(100), m(111), worse},
	} {
		if got := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(eps float64, raised uint64) resultFile {
		rep := &report{Workload: "fanout16", Seed: 1, Events: 10, Exact: counters{Raised: raised},
			EndToEnd: map[string]measured{}}
		for _, m := range endToEnd {
			rep.EndToEnd[m.Name] = measured{Value: 1, Unit: m.Unit}
		}
		rep.EndToEnd["events_per_sec"] = measured{Value: eps, Unit: "events/s", Runs: []float64{eps, eps, eps}}
		rep.EndToEnd["failed_ops_share"] = measured{Unit: "ratio"}
		return resultFile{Workloads: []*report{rep}}
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1000, 10))
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.json", mk(1001, 10))); code != 0 ||
		!strings.Contains(out.String(), "exact outputs identical") {
		t.Errorf("equal files: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, write("slow.json", mk(500, 10))); code != 1 ||
		!strings.Contains(out.String(), "worse") {
		t.Errorf("slower file: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, write("counts.json", mk(1000, 11))); code != 1 ||
		!strings.Contains(out.String(), "EXACT OUTPUTS DIFFER") {
		t.Errorf("different counters: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(&out, base, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestQuickSuite is the -quick smoke test: every workload, at a twentieth
// of its size, through verification, one timed, one traced and one observed
// run and the probes; a second seed must verify too.
func TestQuickSuite(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			opt := options{seed: 1, runs: 1, endToEnd: true, perLayer: true, quick: true, outDir: t.TempDir()}
			rep, err := measureWorkload(sp, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			for _, m := range endToEnd {
				v, ok := rep.EndToEnd[m.Name]
				if !ok || v.Unit != m.Unit || (v.Value <= 0 && m.Name != "failed_ops_share") {
					t.Errorf("end-to-end metric %s = %+v", m.Name, v)
				}
			}
			layer := func(name string) float64 {
				v, ok := rep.PerLayer[name]
				if !ok {
					t.Fatalf("per-layer metric %s is missing", name)
				}
				return v.Value
			}
			var shares float64
			for _, name := range spanNames {
				shares += layer("ddetect." + name + ".share")
			}
			if total := shares + layer("pipeline.crank_other.share"); math.Abs(total-1) > 1e-9 {
				t.Errorf("shares sum to %g, want 1", total)
			}
			if wire := layer("wire.bytes_per_event"); (wire > 0) != sp.serialize {
				t.Errorf("wire.bytes_per_event = %g with serialize %v", wire, sp.serialize)
			}
			if layer("event.pool.double_puts") != 0 || layer("detector.order_violations") != 0 {
				t.Error("double puts or order violations")
			}
			decl := readDeclared(t).PerLayer
			if len(rep.PerLayer) != len(rep.layerOrder) || len(rep.PerLayer) != len(decl) {
				t.Errorf("%d per-layer metrics, %d printed, %d declared in BENCHMARK.json", len(rep.PerLayer), len(rep.layerOrder), len(decl))
			}
			for _, d := range decl {
				if v, ok := rep.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("BENCHMARK.json declares %s (%s), the program has %+v", d.Name, d.Unit, v)
				}
			}

			data, err := os.ReadFile(filepath.Join(opt.outDir, sp.name+".trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			if len(lines) == 0 || len(lines)%(numSpans+1) != 0 {
				t.Fatalf("%d trace lines, want a multiple of %d", len(lines), numSpans+1)
			}
			var first span
			if err := json.Unmarshal(lines[0], &first); err != nil || first.Name != "window" || first.Run != sp.name {
				t.Errorf("first trace line %s: %v", lines[0], err)
			}

			n := sp.events / quickDivisor
			v, err := verify(sp, 2, genSchedule(sp, 2, n), n)
			if err != nil || v.failed != 0 {
				t.Errorf("seed 2: %d failed, %v: %v", v.failed, err, v.why)
			}
		})
	}
}

// declared reads what BENCHMARK.json says the program prints.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// BENCHMARK.json declares the program's workloads and end-to-end metrics
// with the same units, directions and bounds (TestQuickSuite checks the
// per-layer list against what every workload prints).
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	decl := readDeclared(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
	defs := map[string]metricDef{}
	for _, m := range endToEnd {
		defs[m.Name] = m
	}
	// failed_ops_share travels as the failed and attempted keys.
	if len(decl.EndToEnd) != len(endToEnd)-1 {
		t.Errorf("%d end-to-end metrics declared, want %d", len(decl.EndToEnd), len(endToEnd)-1)
	}
	for _, d := range decl.EndToEnd {
		m, ok := defs[d.Name]
		if !ok || d.Unit != m.Unit || (d.Better == "higher") != m.HigherBetter || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %+v does not match the program's %+v", d, m)
		}
	}
}
