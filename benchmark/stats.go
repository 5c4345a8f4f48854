package main

import (
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

var processStart = time.Now() //lint:allow walltime — origin of the benchmark's wall clock; see wallNow

// wallNow is the benchmark's only wall-clock read: monotonic nanoseconds
// since process start.  Measuring wall time is what this program is for;
// nothing read here reaches the simulation, whose time is internal/clock.
//
//lint:allow walltime — the benchmark measures the engine from outside; durations are reported, never fed into simulated time
func wallNow() int64 { return int64(time.Since(processStart)) }

// cpuNow is the process's user plus system CPU time in nanoseconds, read
// from CLOCK_PROCESS_CPUTIME_ID: unlike getrusage it has nanosecond
// resolution, so it can be differenced over a slice of a few hundred
// microseconds.
func cpuNow() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// at reads sorted values at a fractional 0-based rank, interpolating
// linearly between neighbours and clamping to the ends; 0 for no values.
func at(sorted []float64, rank float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank = math.Max(0, math.Min(rank, float64(len(sorted)-1)))
	lo := int(rank)
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (rank-float64(lo))*(sorted[hi]-sorted[lo])
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by linear
// interpolation between closest ranks.
func percentile(sorted []float64, q float64) float64 { return at(sorted, q*float64(len(sorted)-1)) }

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// spread is the distance between the first and the third quartile of a
// metric's runs as a share of their median, the quartiles taken as Python's
// statistics.quantiles(values, n=4) takes them (for three runs they are the
// smallest and the largest).  0 for fewer than two runs.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) < 2 || percentile(s, 0.5) == 0 {
		return 0
	}
	// The k-th quartile sits at 1-based rank k(n+1)/4 (the exclusive method).
	quartile := func(k float64) float64 { return at(s, k*float64(len(s)+1)/4-1) }
	return (quartile(3) - quartile(1)) / math.Abs(percentile(s, 0.5))
}

// sortedScaled returns v × scale in ascending order.
func sortedScaled[T int64 | uint32](v []T, scale float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x) * scale
	}
	slices.Sort(out)
	return out
}

// calibrate times a fixed pure-CPU kernel (integer mixing over a small
// array, no allocation, no system call) and returns nanoseconds; two calls
// around a workload tell whether the box changed speed underneath it.
func calibrate() int64 {
	var buf [4096]uint64
	best := int64(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		t0 := wallNow()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 8_000_000; i++ {
			x = mix(x + uint64(i))
			buf[x&4095] += x
		}
		calibrationSink += buf[0]
		best = min(best, wallNow()-t0)
	}
	return best
}

var calibrationSink uint64
