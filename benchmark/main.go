// Command benchmark is the repo's system benchmark: it drives
// ddetect.System through its public API on five seeded workloads, checks
// the outputs against a reference configuration, prints nine end-to-end
// metrics per workload, and in a separate traced run decomposes the wall
// time by layer.  README.md defines every metric and workload.
//
//	go run ./benchmark                                   # whole suite, results and traces under benchmark/out
//	go run ./benchmark -workload fanout16 -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// nominalRunSeconds is what one timed run takes at most on the reference
// box; a run that has taken half as long again stops early (see runOne).
const nominalRunSeconds = 5

// minSetups is how many times a workload is set up at least, so that the
// stalls of the box can be taken out of setup_s (see endToEndMetrics).
const minSetups = 5

// quickDivisor shrinks every schedule for the smoke test.
const quickDivisor = 20

// runBudgetNs is the wall time after which a timed run stops early.
const runBudgetNs = 1.5 * nominalRunSeconds * 1e9

type options struct {
	seed     int64
	runs     int  // untraced timed runs
	endToEnd bool // report the end-to-end metrics
	perLayer bool // make the traced and observed runs and the probes
	quick    bool
	outDir   string
}

func main() {
	workloadName := flag.String("workload", "", "run this workload only and end with the one-line JSON result (default: all five)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 15, "measure for about this long per workload: one timed run per 5 s")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	quick := flag.Bool("quick", false, "1/20 of every schedule: a smoke test, not a measurement")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and the trace files")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	opt := options{
		seed: *seed, runs: max(*seconds/nominalRunSeconds, 1),
		endToEnd: *trace != 1, perLayer: *trace != 0,
		quick: *quick, outDir: *outDir,
	}
	specs := workloads
	if *workloadName != "" {
		sp, ok := findSpec(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		specs = []spec{sp}
	}

	env := environment(*seed)
	fmt.Printf("environment: go %s GOMAXPROCS %d nproc %d commit %s seed %d\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.Commit, env.Seed)
	file := resultFile{Env: env}
	failed := false
	for _, sp := range specs {
		rep, err := measureWorkload(sp, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		printReport(os.Stdout, rep)
		file.Workloads = append(file.Workloads, rep)
		failed = failed || rep.Failed > 0
	}
	if *workloadName == "" {
		if err := writeJSON(filepath.Join(opt.outDir, "results.json"), file); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	} else {
		printResultLine(file.Workloads[0], opt)
	}
	if failed {
		os.Exit(1)
	}
}

// envRecord says where and on what a result file was measured.
type envRecord struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func environment(seed int64) envRecord {
	return envRecord{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: commit(), Seed: seed,
	}
}

// commit is the revision the binary was built from when the toolchain
// stamped one (go build does, go run does not), else what .git/HEAD of the
// working directory points at, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(data))
	}
	return rev
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Env       envRecord `json:"environment"`
	Workloads []*report `json:"workloads"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measureWorkload verifies one workload and makes every run asked for.
func measureWorkload(sp spec, opt options) (*report, error) {
	n, probeNs := sp.events, int64(200e6)
	if opt.quick {
		n, probeNs = n/quickDivisor, probeNs/100
	}
	rep := &report{Workload: sp.name, Why: sp.why, Seed: opt.seed}
	rep.CalibNs[0] = calibrate()
	sched := genSchedule(sp, opt.seed, n)

	v, err := verify(sp, opt.seed, sched, n)
	if err != nil {
		return nil, err
	}
	rep.Attempted = v.attempted
	rep.fail(v.failed, v.why)

	var setups []*result
	var first *result
	run := func(m mode) (*result, error) {
		res, err := runOne(sp, opt.seed, sched, n, m, runBudgetNs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, res)
		if m == warmup {
			return res, nil
		}
		rep.Attempted += uint64(res.raised)
		rep.fail(res.failedOps(sched))
		if res.truncated {
			rep.Truncated++
		}
		if first == nil {
			first = res
			return res, nil
		}
		// Every run of one seed reports the same exact outputs, whatever
		// is attached to it.
		what := fmt.Sprintf("%s run against first %s run", res.mode, first.mode)
		diffs := differences(what+" after "+fmt.Sprint(first.mid.Raised)+" raises", first.mid, res.mid)
		if !first.truncated && !res.truncated {
			diffs = append(diffs, differences(what+" at the end", first.end, res.end)...)
		}
		rep.fail(uint64(len(diffs)), diffs)
		return res, nil
	}

	runs := opt.runs
	if !opt.endToEnd {
		runs = 1 // the baseline the traced and observed runs are set against
	}
	var timed []*result
	for i := 0; i < runs; i++ {
		res, err := run(untraced)
		if err != nil {
			return nil, err
		}
		timed = append(timed, res)
	}
	rep.Events, rep.TimedRuns, rep.Exact = timed[0].events, runs, timed[0].mid.counters

	if opt.perLayer {
		tr, err := run(traced)
		if err != nil {
			return nil, err
		}
		ob, err := run(observed)
		if err != nil {
			return nil, err
		}
		probes, err := runProbes(probeShape(sp, opt.seed, sched, tr), probeNs)
		if err != nil {
			return nil, err
		}
		perLayerMetrics(rep, sp, timed[0], tr, ob, probes, v.orderViolations)
		if err := writeTrace(filepath.Join(opt.outDir, sp.name+".trace.jsonl"), spans(sp.name, tr.windows)); err != nil {
			return nil, err
		}
	}
	for len(setups) < minSetups {
		if _, err := run(warmup); err != nil {
			return nil, err
		}
	}
	rep.EndToEnd = endToEndMetrics(sp, timed, setups, float64(rep.Failed)/float64(rep.Attempted))
	rep.CalibNs[1] = calibrate()
	a, b := float64(rep.CalibNs[0]), float64(rep.CalibNs[1])
	rep.Noisy = math.Abs(a-b) > 0.05*min(a, b)
	return rep, nil
}

func printReport(w *os.File, rep *report) {
	fmt.Fprintf(w, "\n== %s: seed %d, %d timed runs of %d events", rep.Workload, rep.Seed, rep.TimedRuns, rep.Events)
	if rep.Truncated > 0 {
		fmt.Fprintf(w, " (%d runs stopped early: the box is too slow for the schedule)", rep.Truncated)
	}
	fmt.Fprintf(w, "\n   calibration kernel %.2f ms before, %.2f ms after", float64(rep.CalibNs[0])/1e6, float64(rep.CalibNs[1])/1e6)
	if rep.Noisy {
		fmt.Fprint(w, "  NOISY: the box changed speed by more than 5 % under this workload")
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		v := rep.EndToEnd[m.Name]
		fmt.Fprintf(w, "   %-28s %14.4f %-10s", m.Name, v.Value, v.Unit)
		if len(v.Runs) > 1 {
			s := sortedCopy(v.Runs)
			fmt.Fprintf(w, "  %d runs alone: %.4f to %.4f, spread %.2f %% (bound %s)", len(s), s[0], s[len(s)-1], 100*spread(v.Runs), m.boundText())
		}
		fmt.Fprintln(w)
	}
	for _, name := range rep.layerOrder {
		v := rep.PerLayer[name]
		fmt.Fprintf(w, "   %-44s %16.4f %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "   verification: %d operations attempted, %d failed\n", rep.Attempted, rep.Failed)
	for _, why := range rep.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", why)
	}
}

func (m metricDef) boundText() string {
	switch {
	case m.Bound == 0:
		return "any increase"
	case m.Slack > 0:
		return fmt.Sprintf("%g %% + %g", 100*m.Bound, m.Slack)
	}
	return fmt.Sprintf("%g %%", 100*m.Bound)
}

// printResultLine ends a single-workload invocation with the one JSON
// object the driver reads.  failed_ops_share is carried by its failed and
// attempted keys, not repeated as a metric.
func printResultLine(rep *report, opt options) {
	metrics := map[string]measured{}
	if opt.endToEnd {
		for name, v := range rep.EndToEnd {
			if name != "failed_ops_share" {
				metrics[name] = measured{Value: v.Value, Unit: v.Unit}
			}
		}
	}
	if opt.perLayer {
		for name, v := range rep.PerLayer {
			metrics[name] = v
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted uint64              `json:"attempted"`
		Failed    uint64              `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
