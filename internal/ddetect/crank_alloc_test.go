package ddetect

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/workload"
)

// sustainedCrank builds a fixed 8-site × 8-definition topology where every
// definition is hosted at the site that raises its constituents, so the
// steady state exercises the pooled occurrence lifecycle end to end —
// GetPrimitive at raise, self-delivery, Chronicle pairing, pooled
// composite emission, recycle — with no transport in the loop.  It returns
// the system and one crank iteration, warmed to steady state.
func sustainedCrank(t *testing.T, mutate ...func(*Config)) (*System, func()) {
	const sites = 8
	cfg := Config{}
	for _, m := range mutate {
		m(&cfg)
	}
	sys := MustNewSystem(cfg)
	ids := workload.SiteIDs(sites)
	for _, id := range ids {
		sys.MustAddSite(id, 0, 0)
	}
	aTypes := make([]string, sites)
	bTypes := make([]string, sites)
	for i := 0; i < sites; i++ {
		aTypes[i] = fmt.Sprintf("A%02d", i)
		bTypes[i] = fmt.Sprintf("B%02d", i)
		for _, typ := range []string{aTypes[i], bTypes[i]} {
			if err := sys.Declare(typ, event.Explicit); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < sites; i++ {
		if _, err := sys.DefineAt(ids[i], fmt.Sprintf("P%02d", i), aTypes[i]+" ; "+bTypes[i], detector.Chronicle); err != nil {
			t.Fatal(err)
		}
	}
	// Eight same-instant raises per site per instant: same-site occurrences
	// at one instant stay distinct through the local sequence counter, and
	// Chronicle pairs each terminator with the oldest unconsumed initiator,
	// so all eight pairs detect.  Two instants per iteration so the
	// sequence's initiator strictly precedes its terminator.
	const perInstant = 8
	raise := func(types []string) {
		for s, id := range ids {
			site := sys.Site(id)
			for k := 0; k < perInstant; k++ {
				site.MustRaise(types[s], event.Explicit, nil)
			}
		}
		sys.Step(100)
	}
	iter := func() {
		raise(aTypes)
		raise(bTypes)
	}
	// Warm-up fills the pool and grows the engine's internal buffers to
	// their steady-state capacity.
	for i := 0; i < 64; i++ {
		iter()
	}
	return sys, iter
}

// TestSustainedCrankAllocs pins the sustained crank's allocation budget:
// once warm, an iteration of 128 raises and 64 detections allocates
// nothing, and with the always-on observability posture attached — a real
// span sink (discarded writes) head-sampled at 1% — no more than 17.
// Either way the loop runs on recycled occurrences: pool misses stay
// within 5% of gets (sync.Pool may drop its cache at a collection, so a
// handful of misses is not a regression).
func TestSustainedCrankAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	traced := func(c *Config) {
		c.Trace = obs.NewTracer(obs.NewSpanLog(io.Discard))
		c.Sample = obs.NewSampler(1, 0.01)
	}
	for _, arm := range []struct {
		name   string
		max    float64
		mutate []func(*Config)
	}{
		{"untraced", 0, nil},
		{"traced", 17, []func(*Config){traced}},
	} {
		sys, iter := sustainedCrank(t, arm.mutate...)
		st0, ps0 := sys.Stats(), sys.PoolStats()
		n := testing.AllocsPerRun(200, iter)
		st, ps := sys.Stats(), sys.PoolStats()
		gets, misses := ps.Gets-ps0.Gets, ps.Misses-ps0.Misses
		t.Logf("%s: %v allocs per iteration, %d misses of %d gets", arm.name, n, misses, gets)
		// AllocsPerRun makes one warm-up call of its own.
		if got, want := st.Detections-st0.Detections, uint64(201*64); got != want {
			t.Fatalf("%s: %d detections in 201 iterations, want %d", arm.name, got, want)
		}
		if n > arm.max {
			t.Errorf("%s: %v allocs per iteration, want ≤ %v", arm.name, n, arm.max)
		}
		if misses*20 > gets {
			t.Errorf("%s: %d pool misses of %d gets, want ≤ 5%%", arm.name, misses, gets)
		}
	}
}
