package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// verdict is the outcome of comparing one end-to-end metric of one
// workload between two result files.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares metric m between a (the parent) and b (the change).  The
// change is worse when its median is worse than the parent's by more than
// the bound, better when it is better by more than the bound.  Where the
// spread of either side's runs exceeds the bound and the two sides' runs
// interleave, the runs cannot tell: unresolved, not same.
func judge(m metricDef, a, b measured) verdict {
	sign := 1.0 // positive delta = worse
	if m.HigherBetter {
		sign = -1
	}
	margin := m.Bound*math.Abs(a.Value) + m.Slack
	delta := sign * (b.Value - a.Value)
	if len(a.Runs) > 1 && len(b.Runs) > 1 && max(spread(a.Runs), spread(b.Runs)) > m.Bound {
		as, bs := sortedCopy(a.Runs), sortedCopy(b.Runs)
		apart := as[len(as)-1] < bs[0] || bs[len(bs)-1] < as[0]
		if !apart {
			return unresolved
		}
	}
	switch {
	case delta > margin:
		return worse
	case delta < -margin:
		return better
	}
	return same
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one verdict per workload and end-to-end metric and
// says whether the exact outputs agree; the exit code is 1 when anything
// is worse, 2 when a file cannot be read.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var files [2]resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(w, files[0], files[1])
}

func compareResults(w io.Writer, a, b resultFile) int {
	code := 0
	for _, ra := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r *report) bool { return r.Workload == ra.Workload })
		if i < 0 {
			fmt.Fprintf(w, "%-14s missing from the second file\n", ra.Workload)
			code = 1
			continue
		}
		rb := b.Workloads[i]
		note := ""
		if ra.Noisy || rb.Noisy {
			note = "  (a run was marked noisy)"
		}
		if ra.Seed != rb.Seed || ra.Events != rb.Events {
			note += "  (different seed or run length: exact outputs not comparable)"
		} else if ra.Exact != rb.Exact {
			note += "  EXACT OUTPUTS DIFFER"
			code = 1
		} else {
			note += "  exact outputs identical"
		}
		fmt.Fprintf(w, "%s:%s\n", ra.Workload, note)
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v := judge(m, va, vb)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(w, "   %-28s %14.4f -> %14.4f %-10s %+7.2f %%  bound %-14s %s\n",
				m.Name, va.Value, vb.Value, va.Unit, 100*ratio(vb.Value-va.Value, va.Value), m.boundText(), v)
		}
	}
	return code
}
