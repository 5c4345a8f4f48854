package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// algebraPairs draws the 512 seeded stamp pairs BenchmarkSetStampAlgebra
// and TestSetStampAlgebraAllocs cycle through at a given set size.
func algebraPairs(comps int) [][2]SetStamp {
	r := rand.New(rand.NewSource(int64(100 + comps)))
	gen := Generator(r, comps+1, comps, 10, 4000)
	pairs := make([][2]SetStamp, 512)
	for i := range pairs {
		pairs[i] = [2]SetStamp{gen(), gen()}
	}
	return pairs
}

// BenchmarkSetStampAlgebra prices each core operation of the composite
// timestamp algebra in isolation across the Theorem 5.1 size range
// (|T(e)| ≤ #sites).  MaxInto is the scratch-reuse variant the detection
// hot path leans on; its allocs/op should read 0 once the scratch warms.
func BenchmarkSetStampAlgebra(b *testing.B) {
	for _, comps := range []int{1, 2, 4, 8, 16} {
		comps := comps
		pairs := algebraPairs(comps)
		b.Run(fmt.Sprintf("Max/components=%d", comps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sinkSet = Max(p[0], p[1])
			}
		})
		b.Run(fmt.Sprintf("MaxInto/components=%d", comps), func(b *testing.B) {
			scratch := make(SetStamp, 0, 2*comps)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				scratch = MaxInto(scratch, p[0], p[1])
			}
			sinkSet = scratch
		})
		b.Run(fmt.Sprintf("Less/components=%d", comps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if p[0].Less(p[1]) {
					sinkInt++
				}
			}
		})
		b.Run(fmt.Sprintf("ConcurrentWith/components=%d", comps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if p[0].ConcurrentWith(p[1]) {
					sinkInt++
				}
			}
		})
	}
}

// TestSetStampAlgebraAllocs pins what one call of each algebra kernel
// allocates, in the string form and in the roster-interned runtime form,
// across the Theorem 5.1 size range: the relations and the scratch-reuse
// folds allocate nothing, and the allocating Max at most its result.
// Each measured call walks all 512 pairs, so a data-dependent allocation
// on any one of them shows.
func TestSetStampAlgebraAllocs(t *testing.T) {
	for _, comps := range []int{1, 2, 4, 8, 16} {
		pairs := algebraPairs(comps)
		ids := make([]SiteID, comps+1)
		for i := range ids {
			ids[i] = SiteID(fmt.Sprintf("site%d", i+1))
		}
		roster := NewRoster(ids)
		rpairs := make([][2]RSetStamp, len(pairs))
		for i, p := range pairs {
			for j := range p {
				rs, ok := roster.AppendCanon(nil, p[j])
				if !ok {
					t.Fatalf("AppendCanon rejected %s", p[j])
				}
				rpairs[i][j] = rs
			}
		}
		scratch := make(SetStamp, 0, 2*comps)
		rscratch := make(RSetStamp, 0, 2*comps)
		n := 0
		kernels := []struct {
			name string
			max  float64
			run  func()
		}{
			{"Max", 1, func() {
				for _, p := range pairs {
					sinkSet = Max(p[0], p[1])
				}
			}},
			{"MaxInto", 0, func() {
				for _, p := range pairs {
					scratch = MaxInto(scratch, p[0], p[1])
				}
			}},
			{"Less", 0, func() {
				for _, p := range pairs {
					if p[0].Less(p[1]) {
						n++
					}
				}
			}},
			{"ConcurrentWith", 0, func() {
				for _, p := range pairs {
					if p[0].ConcurrentWith(p[1]) {
						n++
					}
				}
			}},
			{"RMaxInto", 0, func() {
				for _, p := range rpairs {
					rscratch = RMaxInto(rscratch, p[0], p[1])
				}
			}},
			{"RLess", 0, func() {
				for _, p := range rpairs {
					if p[0].Less(p[1]) {
						n++
					}
				}
			}},
			{"RConcurrentWith", 0, func() {
				for _, p := range rpairs {
					if p[0].ConcurrentWith(p[1]) {
						n++
					}
				}
			}},
		}
		for _, k := range kernels {
			// Per call, not per walk: the walk makes len(pairs) calls.
			if got := testing.AllocsPerRun(10, k.run) / float64(len(pairs)); got > k.max {
				t.Errorf("%s at %d components: %v allocs per call, want ≤ %v", k.name, comps, got, k.max)
			}
		}
		sinkInt += n
	}
}

// TestScalarOrderDiverges is the set-vs-scalar ablation: ordering
// composite stamps by their maximum global alone — what a scalar-stamp
// engine would do — disagrees with the paper's < on some seeded pairs
// (5 of 2048 at this seed).
func TestScalarOrderDiverges(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	gen := Generator(r, 6, 4, 10, 2000)
	disagreements := 0
	for i := 0; i < 2048; i++ {
		a, b := gen(), gen()
		if a.Less(b) != (a.MaxGlobal() < b.MaxGlobal()) {
			disagreements++
		}
	}
	t.Logf("%d of 2048 pairs disagree", disagreements)
	if disagreements == 0 {
		t.Fatalf("the max-global scalar order agrees with < on all 2048 pairs")
	}
}

// TestGranularitySweep pins the granularity ablation: cross-site event
// pairs 50–250 local ticks apart become concurrent as the local-per-global
// ratio coarsens global time.  On the seeded 1024 pairs the concurrent
// count reads 0, 0, 133 and 1024 at ratios 2, 10, 50 and 250.
func TestGranularitySweep(t *testing.T) {
	ratios := []int64{2, 10, 50, 250}
	counts := make([]int, len(ratios))
	for k, ratio := range ratios {
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 1024; i++ {
			base := r.Int63n(1_000_000)
			gap := 50 + r.Int63n(200)
			if DeriveStamp("s1", base, ratio).Concurrent(DeriveStamp("s2", base+gap, ratio)) {
				counts[k]++
			}
		}
	}
	t.Logf("concurrent pairs at localPerGlobal %v: %v", ratios, counts)
	for k := 1; k < len(counts); k++ {
		if counts[k] < counts[k-1] {
			t.Errorf("concurrent pairs fall from %d to %d as localPerGlobal grows from %d to %d",
				counts[k-1], counts[k], ratios[k-1], ratios[k])
		}
	}
	if counts[0] != 0 || counts[len(counts)-1] != 1024 {
		t.Errorf("concurrent pairs per ratio %v = %v, want the sweep to run from 0 to 1024", ratios, counts)
	}
}

// sinks prevent dead-code elimination.
var (
	sinkInt int
	sinkSet SetStamp
)
