// The always-on tracing overhead check: a 1%-sampled tracer over the
// pooled detect-heavy pipeline workload, timed against the untraced run.
package sentinel_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ddetect"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/obs"
)

// runPipelineWorkload drives a detect-heavy multi-definition deployment:
// `hosts` sites each hosting `defsPerHost` definitions over the same four
// primitive types, fed by a definition-free feeder site whose raises fan
// out to every host.  Events are raised in bursts between steps so the
// release stage hands each host's detect stage sizeable batches.
func runPipelineWorkload(b *testing.B, hosts, defsPerHost, events int, mutate ...func(*ddetect.Config)) ddetect.Stats {
	b.Helper()
	cfg := ddetect.Config{
		Net: network.Config{BaseLatency: 20, Jitter: 30, Seed: 7},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	sys := ddetect.MustNewSystem(cfg)
	feeder := sys.MustAddSite("zz-feed", 0, 0)
	rng := rand.New(rand.NewSource(13))
	hostIDs := make([]core.SiteID, hosts)
	for i := range hostIDs {
		hostIDs[i] = core.SiteID(fmt.Sprintf("h%02d", i))
		sys.MustAddSite(hostIDs[i], rng.Int63n(41)-20, 0)
	}
	for _, typ := range []string{"A", "B", "C", "D"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			b.Fatal(err)
		}
	}
	exprs := []string{"A ; B", "C AND D", "ANY(2, A, B, C)", "NOT(C)[A, D]", "(A ; B) ; C"}
	for h, host := range hostIDs {
		for d := 0; d < defsPerHost; d++ {
			name := fmt.Sprintf("X%02d_%02d", h, d)
			if _, err := sys.DefineAt(host, name, exprs[d%len(exprs)], detector.Chronicle); err != nil {
				b.Fatal(err)
			}
		}
	}
	types := [4]string{"A", "B", "C", "D"}
	for i := 0; i < events; i++ {
		feeder.MustRaise(types[i%4], event.Explicit, nil)
		if i%8 == 7 {
			sys.Step(100) // burst of 8 raises per step: large release batches
		}
	}
	if err := sys.Settle(10_000); err != nil {
		b.Fatal(err)
	}
	return sys.Stats()
}

// sampledTracer is the always-on production posture: a real sink (writes
// discarded, so the measurement is the tracer's own cost, not an
// encoder's) head-sampled at 1% under a fixed seed.  Pooling stays on —
// generation-stamped span identity composes with slot reuse, so the
// traced arm runs the same pooled hot path as the untraced one.
func sampledTracer(c *ddetect.Config) {
	c.Trace = obs.NewTracer(obs.NewSpanLog(io.Discard))
	c.Sample = obs.NewSampler(7, 0.01)
}

// TestTraceOverheadSmoke is the CI guard for the always-on tracing cost:
// a real-sink tracer at 1% head sampling must not regress the pooled
// detect-heavy pipeline workload by more than 3% comparing the minima of
// interleaved measurements.
// (Earlier PRs compared an unsunk tracer against an *unpooled* baseline
// under an 8% budget, because an attached tracer used to force pooling
// off.  Generation-keyed span identity removed that interlock, so both
// arms now run the production pooled path and the budget tightens to the
// sampled posture's real cost: the per-raise hash plus a 1% trickle of
// span writes.)
// Benchmark-grade timing in a test is noisy, so it only runs when asked:
//
//	SENTINEL_TRACE_OVERHEAD=1 go test -run TestTraceOverheadSmoke -v .
func TestTraceOverheadSmoke(t *testing.T) {
	if os.Getenv("SENTINEL_TRACE_OVERHEAD") == "" {
		t.Skip("set SENTINEL_TRACE_OVERHEAD=1 to run the trace-overhead smoke benchmark")
	}
	measure := func(mutate ...func(*ddetect.Config)) float64 {
		return float64(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runPipelineWorkload(b, 4, 6, 320, mutate...)
			}
		}).NsPerOp())
	}
	const rounds = 5
	off := make([]float64, 0, rounds)
	traced := make([]float64, 0, rounds)
	measure()                     // warm-up discarded
	for i := 0; i < rounds; i++ { // interleave so drift hits both arms
		off = append(off, measure())
		traced = append(traced, measure(sampledTracer))
	}
	// Compare minima, not medians: scheduler and neighbor noise only
	// ever adds time, so the fastest of five interleaved rounds is the
	// closest each arm gets to its true cost on a shared machine.
	minOf := func(v []float64) float64 {
		sort.Float64s(v)
		return v[0]
	}
	mOff, mTraced := minOf(off), minOf(traced)
	ratio := mTraced / mOff
	t.Logf("min ns/op: off=%.0f sampled-1%%-tracing=%.0f (%.1f%%)", mOff, mTraced, (ratio-1)*100)
	if ratio > 1.03 {
		t.Fatalf("1%%-sampled tracing costs %.1f%% (min of %d), budget is 3%%",
			(ratio-1)*100, rounds)
	}
}
