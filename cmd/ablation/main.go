// Command ablation quantifies the paper's "least restricted" requirement
// (Section 5.1, requirement 3): for each candidate composite-timestamp
// ordering it estimates the fraction of random valid timestamp pairs the
// ordering can relate, sweeping the number of components per timestamp
// and the site count.  The paper's ∀∃ ordering should dominate every
// other valid ordering at every point of the sweep.
//
// It also reports the cost of the Max operator and of relation evaluation
// as set sizes grow — the price of set timestamps over scalar ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
)

func main() {
	samples := flag.Int("samples", 50_000, "random pairs per configuration")
	seed := flag.Int64("seed", 7, "random seed")
	flag.Parse()
	report(os.Stdout, *samples, *seed)
}

// report runs the sweeps and writes the tables to w.
func report(w io.Writer, samples int, seed int64) {

	fmt.Fprintln(w, "comparability rate (fraction of random valid pairs related either way)")
	fmt.Fprintf(w, "%-24s", "components/sites:")
	sweeps := []struct{ comps, sites int }{{1, 2}, {2, 4}, {4, 4}, {4, 8}, {8, 8}}
	for _, sw := range sweeps {
		fmt.Fprintf(w, "  %d/%d    ", sw.comps, sw.sites)
	}
	fmt.Fprintln(w)
	for _, ord := range core.Orderings() {
		if !ord.Valid {
			continue // the ∃∃ candidate is not an ordering at all
		}
		fmt.Fprintf(w, "%-24s", ord.Name)
		for _, sw := range sweeps {
			r := rand.New(rand.NewSource(seed))
			gen := core.Generator(r, sw.sites, sw.comps, 10, 2000)
			rate := core.ComparabilityRate(ord.Less, gen, samples)
			fmt.Fprintf(w, "  %.4f", rate)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\nMax-operator and relation cost vs set size (ns/op, sampled)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "components", "Less", "Concurrent", "Max")
	for _, comps := range []int{1, 2, 4, 8, 16} {
		r := rand.New(rand.NewSource(seed))
		gen := core.Generator(r, comps+1, comps, 10, 2000)
		pairs := make([][2]core.SetStamp, 256)
		for i := range pairs {
			pairs[i] = [2]core.SetStamp{gen(), gen()}
		}
		less := timeIt(func(i int) { _ = pairs[i%256][0].Less(pairs[i%256][1]) })
		conc := timeIt(func(i int) { _ = pairs[i%256][0].ConcurrentWith(pairs[i%256][1]) })
		max := timeIt(func(i int) { _ = core.Max(pairs[i%256][0], pairs[i%256][1]) })
		fmt.Fprintf(w, "%-12d %12.1f %12.1f %12.1f\n", comps, less, conc, max)
	}
}

// timeIt returns approximate ns/op for fn.
func timeIt(fn func(i int)) float64 {
	const iters = 200_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}
