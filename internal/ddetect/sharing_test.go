package ddetect

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/network"
	"repro/internal/workload"
)

// tenantOpts parameterizes runTenantScenario: a multi-tenant variant of
// runScenario whose definition set comes from workload.GenDefs instead of
// the fixed five, hosted round-robin across the sites with contexts drawn
// from the full detector.Contexts() range.
type tenantOpts struct {
	sites   int
	count   int // workload events
	defs    int
	overlap float64
	seed    int64
	mutate  func(*Config)
}

// runTenantScenario drives one seeded multi-tenant scenario and returns
// the serialized occurrence stream, the system stats, and the total
// number of shared-subexpression cache entries across all site detectors
// (0 when sharing is disabled — the non-vacuousness signal).
func runTenantScenario(t testing.TB, o tenantOpts) ([]byte, Stats, int) {
	t.Helper()
	cfg := Config{
		Net: network.Config{
			BaseLatency: 20, Jitter: 70,
			DropRate: 0.05, RetransmitDelay: 150, Seed: o.seed + 101,
		},
	}
	if o.mutate != nil {
		o.mutate(&cfg)
	}
	sys := MustNewSystem(cfg)
	rng := rand.New(rand.NewSource(o.seed + 202))
	ids := make([]core.SiteID, o.sites)
	for i := range ids {
		ids[i] = core.SiteID(fmt.Sprintf("s%02d", i))
		sys.MustAddSite(ids[i], rng.Int63n(61)-30, rng.Int63n(4))
	}
	p := o.defs / 8
	if p < 8 {
		p = 8
	}
	types := workload.TypeNames(p)
	for _, typ := range types {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	ctxs := detector.Contexts()
	defs := workload.GenDefs(workload.DefsConfig{
		Count: o.defs, Types: types, Overlap: o.overlap,
		Contexts: len(ctxs), Seed: o.seed,
	})
	var buf bytes.Buffer
	log := eventlog.NewWriter(&buf)
	for i, d := range defs {
		if _, err := sys.DefineAt(ids[i%len(ids)], d.Name, d.Expr, ctxs[d.Ctx]); err != nil {
			t.Fatal(err)
		}
		if err := sys.Subscribe(d.Name, func(occ *event.Occurrence) {
			if err := log.Append(occ); err != nil {
				t.Errorf("log append: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	trace := workload.GenStream(workload.StreamConfig{
		Sites: ids, Types: types, MeanGap: 40, Count: o.count, Seed: o.seed,
	})
	for _, item := range trace.Items {
		sys.Run(item.At, 50)
		sys.Site(item.Site).MustRaise(item.Type, event.Explicit, item.Params)
	}
	if err := sys.Settle(50_000); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, id := range ids {
		shared += sys.Site(id).Detector().Introspect().SharedSubexprs
	}
	return buf.Bytes(), sys.Stats(), shared
}

// TestSharingDeterminism is the PR-9 compiler regression: hash-consed
// common-subexpression sharing must be invisible to detection.  Across
// seeds × site counts on an overlap-heavy tenant workload, the occurrence
// log must be byte-identical with sharing on and off
// (Config.DisableSharing is the differential mode), and the shared runs
// must actually share — a non-empty shared-subexpression cache — or the
// comparison would be vacuous.
func TestSharingDeterminism(t *testing.T) {
	for _, seed := range []int64{5, 31} {
		for _, sites := range []int{3, 6} {
			o := tenantOpts{
				sites: sites, count: 250, seed: seed,
				defs: 96, overlap: 0.7,
			}
			baseLog, baseStats, shared := runTenantScenario(t, o)
			if baseStats.Detections == 0 {
				t.Fatalf("seed=%d sites=%d: no detections; comparison is vacuous", seed, sites)
			}
			if shared == 0 {
				t.Fatalf("seed=%d sites=%d: overlap-heavy workload built no shared subexpressions; comparison is vacuous",
					seed, sites)
			}
			uo := o
			uo.mutate = func(c *Config) { c.DisableSharing = true }
			log, st, unshared := runTenantScenario(t, uo)
			if unshared != 0 {
				t.Fatalf("seed=%d sites=%d: DisableSharing still built %d shared subexpressions",
					seed, sites, unshared)
			}
			if !bytes.Equal(baseLog, log) {
				t.Errorf("seed=%d sites=%d: occurrence log (%d bytes) differs with sharing off (%d bytes)",
					seed, sites, len(log), len(baseLog))
			}
			if st.Detections != baseStats.Detections || st.Released != baseStats.Released {
				t.Errorf("seed=%d sites=%d: det=%d rel=%d unshared, want det=%d rel=%d",
					seed, sites, st.Detections, st.Released,
					baseStats.Detections, baseStats.Released)
			}
		}
	}
}

// TestManyDefinitionsDeterminism runs the sharing differential once at the
// 1000-definition scale the PR-9 compiler targets: sharing on and off must
// produce the byte-identical occurrence log.  One seed — the point is the
// scale, not the sweep.
func TestManyDefinitionsDeterminism(t *testing.T) {
	base := tenantOpts{sites: 4, count: 300, seed: 7, defs: 1000, overlap: 0.5}
	refLog, refStats, shared := runTenantScenario(t, base)
	if refStats.Detections == 0 {
		t.Fatal("1000-definition scenario produced no detections")
	}
	if shared == 0 {
		t.Fatal("1000-definition scenario built no shared subexpressions")
	}
	o := base
	o.mutate = func(c *Config) { c.DisableSharing = true }
	log, st, _ := runTenantScenario(t, o)
	if !bytes.Equal(refLog, log) {
		t.Errorf("sharing off: occurrence log (%d bytes) differs from reference (%d bytes)", len(log), len(refLog))
	}
	if st.Detections != refStats.Detections {
		t.Errorf("sharing off: %d detections, want %d", st.Detections, refStats.Detections)
	}
}
