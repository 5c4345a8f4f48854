package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/pipeline"
)

// The harness records one parent span per window of windowSteps Step calls
// with one child per layer boundary it can see from outside: the time
// inside Site.Raise calls, and the five stage slices the OnStage hook
// reports.  What is left of a window is the crank's own time.
const windowSteps = 1024

const (
	spanRaise = iota
	spanIngest
	spanTransport
	spanRelease
	spanDetect
	spanPublish
	numSpans
)

var spanNames = [numSpans]string{"raise", "ingest", "transport", "release", "detect", "publish"}

// window is one parent span and the summed durations of its children.
type window struct {
	start, end int64
	child      [numSpans]int64
	heap       uint64
}

func stageSpan(name string) int {
	for i := spanIngest; i < numSpans; i++ {
		if spanNames[i] == name {
			return i
		}
	}
	return -1
}

// onStage is the pipeline hook of traced runs.
func (r *runner) onStage(ev pipeline.StageEvent) {
	i := stageSpan(ev.Stage)
	if i < 0 {
		return
	}
	ns := ev.Elapsed.Nanoseconds()
	r.res.hookTotal[i] += ns
	if r.sampling {
		r.cur.child[i] += ns
	}
}

// closeWindow ends the current window at t, samples the heap, and starts
// the next window after the sample: the windows cover the timed region
// except for the harness's own heap reads.
func (r *runner) closeWindow(t int64) {
	if t == r.cur.start {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.cur.end, r.cur.heap = t, ms.HeapAlloc
	r.res.heapPeak = max(r.res.heapPeak, ms.HeapAlloc)
	r.res.windows = append(r.res.windows, r.cur)
	r.last = wallNow()
	r.cur = window{start: r.last}
}

// span is one line of the trace file.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans lays a run's windows out as a span tree: window k is span 7k+1 and
// its children follow it end to end from the window's start, so a child's
// duration is its summed busy time and the uncovered tail of the window is
// the window's self time.  Instants are relative to the first window.
func spans(runID string, windows []window) []span {
	if len(windows) == 0 {
		return nil
	}
	origin := windows[0].start
	out := make([]span, 0, len(windows)*(numSpans+1))
	for k, w := range windows {
		id := k*(numSpans+1) + 1
		out = append(out, span{runID, id, 0, "window", w.start - origin, w.end - origin})
		at := w.start - origin
		for c, d := range w.child {
			out = append(out, span{runID, id + 1 + c, id, spanNames[c], at, at + d})
			at += d
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval its children
// cover (children may overlap each other or stick out of the parent).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort by start: a parent has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	covered, edge := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return parent.End - parent.Start - covered
}

// writeTrace writes the spans kept in memory during the run, one JSON
// object per line.
func writeTrace(path string, sp []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sp {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
