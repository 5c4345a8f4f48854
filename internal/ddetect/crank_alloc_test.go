package ddetect

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/workload"
)

// sustainedCrank builds a fixed 8-site × 8-definition topology.  Local,
// every definition is hosted at the site that raises its constituents, so
// the steady state exercises the pooled occurrence lifecycle end to end —
// GetPrimitive at raise, self-delivery, Chronicle pairing, pooled
// composite emission, recycle — with no transport in the loop.  Remote,
// each definition is hosted at the next site, so every event also crosses
// the coalescer, the bus, the receiving reorderer and, with Serialize
// set, the codec.  It returns the system and one crank iteration, warmed
// to steady state and the number of warm-up iterations that took.
func sustainedCrank(t *testing.T, remote bool, mutate ...func(*Config)) (*System, func(), int) {
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
		host := ids[i]
		if remote {
			host = ids[(i+1)%sites]
		}
		if _, err := sys.DefineAt(host, fmt.Sprintf("P%02d", i), aTypes[i]+" ; "+bTypes[i], detector.Chronicle); err != nil {
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
	// their steady-state capacity.  Over a jittery transport the number of
	// live occurrences at an iteration's peak is a random variable whose
	// running maximum keeps rising, ever more rarely: each new record is
	// a burst of pool misses, each miss a few allocations.  The steady
	// state is therefore a stated one — quietWarm consecutive iterations
	// without a pool miss — and a warm-up that never reaches it fails.
	warm := 0
	for quiet := 0; quiet < quietWarm; warm++ {
		if warm == maxWarm {
			t.Fatalf("no %d consecutive miss-free iterations in %d", quietWarm, maxWarm)
		}
		misses := sys.PoolStats().Misses
		iter()
		if sys.PoolStats().Misses == misses {
			quiet++
		} else {
			quiet = 0
		}
	}
	return sys, iter, warm
}

// quietWarm is how many consecutive miss-free iterations sustainedCrank's
// warm-up ends on, and maxWarm how many it runs at most.
const quietWarm, maxWarm = 256, 4096

// TestSustainedCrankAllocs pins the sustained crank's allocation budget:
// once warm, an iteration of 128 raises and 64 detections allocates
// nothing — local, and remote over a jittery serialized transport, where
// messages overtake each other on every link and each event is encoded,
// decoded into the pool and restored to order — and with the always-on
// observability posture attached — a real span sink (discarded writes)
// head-sampled at 1% — no more than 17.  Every arm runs on recycled
// occurrences: pool misses stay within 5% of gets (sync.Pool may drop its
// cache at a collection, so a handful of misses is not a regression).
func TestSustainedCrankAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	traced := func(c *Config) {
		c.Trace = obs.NewTracer(obs.NewSpanLog(io.Discard))
		c.Sample = obs.NewSampler(1, 0.01)
	}
	// Jitter above the 100-microtick flush period reorders each link.
	serialized := func(c *Config) {
		c.Serialize = true
		c.Net = network.Config{BaseLatency: 20, Jitter: 250, Seed: 1}
	}
	for _, arm := range []struct {
		name   string
		max    float64
		remote bool
		mutate []func(*Config)
	}{
		{"untraced", 0, false, nil},
		{"traced", 17, false, []func(*Config){traced}},
		{"wire", 0, true, []func(*Config){serialized}},
	} {
		sys, iter, warm := sustainedCrank(t, arm.remote, arm.mutate...)
		st0, ps0 := sys.Stats(), sys.PoolStats()
		n := testing.AllocsPerRun(200, iter)
		st, ps := sys.Stats(), sys.PoolStats()
		gets, misses := ps.Gets-ps0.Gets, ps.Misses-ps0.Misses
		t.Logf("%s: %v allocs per iteration, %d misses of %d gets, after %d warm-up iterations", arm.name, n, misses, gets, warm)
		if arm.remote {
			// Detections trail the raises by the transport's varying
			// delay, so count them once everything has arrived: every
			// initiator pairs with its terminator.
			if err := sys.Settle(1000); err != nil {
				t.Fatal(err)
			}
			rings := 0
			for _, s := range sys.sites {
				for _, src := range s.re.sources {
					if src.pending != nil {
						rings++
					}
				}
			}
			if st := sys.Stats(); st.Detections*2 != st.Raised || rings == 0 {
				t.Fatalf("%s: %d detections of %d raises, %d links reordered: want every pair detected, some links reordered",
					arm.name, st.Detections, st.Raised, rings)
			}
		} else if got, want := st.Detections-st0.Detections, uint64(201*64); got != want {
			// AllocsPerRun makes one warm-up call of its own.
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
