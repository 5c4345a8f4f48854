package ddetect

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/wire"
	"repro/internal/workload"
)

// scaleMemberships are the roster sizes the scale tests sweep.  They run
// in tier-1 `go test ./...` with tiny event counts, so the dense
// roster-indexed paths (slot addressing, frontier vector, release key)
// are exercised at four-digit membership without waiting on benchmarks.
var scaleMemberships = []int{64, 256, 1024}

// TestReordererScaleMembership drives a full-membership reorderer at each
// scale: one event per source over a small global window, with one member
// held silent to prove the watermark gates on the full frontier vector,
// then heartbeats that open the gate in two steps.  Release order must be
// the (global, site, local, arrival) linear extension, where the dense
// site index orders exactly as the site-ID string it interns.
func TestReordererScaleMembership(t *testing.T) {
	for _, n := range scaleMemberships {
		t.Run(fmt.Sprintf("sites=%d", n), func(t *testing.T) {
			ids := workload.SiteIDs(n)
			roster := core.NewRoster(ids)
			r := newReorderer(roster)

			// Sources 0..n-2 each contribute one event; globals cycle over
			// [10, 17) so the heap has to interleave sites.  Source n-1
			// stays silent.
			globalOf := func(i int) int64 { return int64(10 + (i*3)%7) }
			lowest := 0
			for i := 0; i < n-1; i++ {
				g := globalOf(i)
				if g == 10 {
					lowest++
				}
				occ := event.NewPrimitive("A", event.Explicit,
					core.DeriveStamp(ids[i], g*10, 10), nil)
				if err := r.accept(core.Site(i), 1, wire.Envelope{Kind: wire.KindEvent, Occ: occ}); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(r.releaseInto(ReleaseExtension, nil)); got != 0 {
				t.Fatalf("released %d events while %s was silent, want 0", got, ids[n-1])
			}
			if got := r.pendingEvents(); got != n-1 {
				t.Fatalf("pendingEvents = %d, want %d", got, n-1)
			}

			// The silent member heartbeats global 9: min frontier 9, so
			// extension mode releases exactly the global-10 events.
			if err := r.accept(core.Site(n-1), 1, wire.Envelope{Kind: wire.KindHeartbeat, Global: 9}); err != nil {
				t.Fatal(err)
			}
			var keys []key
			release := func(mode ReleaseMode) int {
				envs := r.releaseInto(mode, nil)
				for _, env := range envs {
					keys = append(keys, key{
						global: env.Occ.Stamp.MaxGlobal(),
						site:   roster.MustSite(env.Occ.Stamp.MaxGlobalComponent().Site),
					})
				}
				return len(envs)
			}
			if got := release(ReleaseExtension); got != lowest {
				t.Fatalf("partial release = %d, want %d (the global-10 events)", got, lowest)
			}

			// Everyone advances far past the window: the rest releases, in
			// both modes' threshold (use total order for the stricter gate).
			for i := 0; i < n; i++ {
				if err := r.accept(core.Site(i), 2, wire.Envelope{Kind: wire.KindHeartbeat, Global: 1000}); err != nil {
					t.Fatal(err)
				}
			}
			if got := release(ReleaseTotalOrder); got != n-1-lowest {
				t.Fatalf("final release = %d, want %d", got, n-1-lowest)
			}
			if got := r.pendingEvents(); got != 0 {
				t.Fatalf("pendingEvents after full release = %d, want 0", got)
			}

			// The concatenated release sequence is sorted by (global, site),
			// and equal-global runs ascend by roster index — i.e. by site ID.
			for i := 1; i < len(keys); i++ {
				a, b := keys[i-1], keys[i]
				if a.global > b.global || (a.global == b.global && a.site >= b.site) {
					t.Fatalf("release order violated at %d: (%d,%d) then (%d,%d)",
						i, a.global, a.site, b.global, b.site)
				}
			}
		})
	}
}

// TestReordererScaleExclusion pins the decommission path at scale: a lone
// speaker is gated by every silent member until all of them are excluded,
// at which point its event releases against its own frontier alone.
func TestReordererScaleExclusion(t *testing.T) {
	for _, n := range scaleMemberships {
		t.Run(fmt.Sprintf("sites=%d", n), func(t *testing.T) {
			ids := workload.SiteIDs(n)
			roster := core.NewRoster(ids)
			r := newReorderer(roster)
			occ := event.NewPrimitive("A", event.Explicit,
				core.DeriveStamp(ids[0], 100, 10), nil)
			if err := r.accept(core.Site(0), 1, wire.Envelope{Kind: wire.KindEvent, Occ: occ}); err != nil {
				t.Fatal(err)
			}
			if got := len(r.releaseInto(ReleaseExtension, nil)); got != 0 {
				t.Fatalf("released %d with %d silent members, want 0", got, n-1)
			}
			for i := 1; i < n; i++ {
				r.exclude(core.Site(i))
			}
			// min frontier is now the speaker's own 10: 10 ≤ 10+1 releases.
			if got := len(r.releaseInto(ReleaseExtension, nil)); got != 1 {
				t.Fatalf("released %d after excluding all silent members, want 1", got)
			}
		})
	}
}

// TestWatermarkGatingScaleSystem runs the full pipeline end to end at each
// membership: a cross-site sequence between the lexically last and first
// sites, with every other member contributing only heartbeats.  The
// detection firing proves the watermark waited for — and then heard from —
// all n frontiers; the released count proves no event leaked early.
func TestWatermarkGatingScaleSystem(t *testing.T) {
	for _, n := range scaleMemberships {
		t.Run(fmt.Sprintf("sites=%d", n), func(t *testing.T) {
			if testing.Short() && n > 256 {
				t.Skip("large membership skipped in -short mode")
			}
			sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 20}})
			ids := workload.SiteIDs(n)
			for _, id := range ids {
				sys.MustAddSite(id, 0, 0)
			}
			for _, typ := range []string{"A", "B"} {
				if err := sys.Declare(typ, event.Explicit); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sys.DefineAt(ids[0], "AB", "A ; B", detector.Chronicle); err != nil {
				t.Fatal(err)
			}
			got := collect(t, sys, "AB")

			sys.Site(ids[n-1]).MustRaise("A", event.Explicit, nil)
			sys.Run(500, 50) // two granules later: unambiguously ordered
			sys.Site(ids[0]).MustRaise("B", event.Explicit, nil)
			if err := sys.Settle(5_000); err != nil {
				t.Fatal(err)
			}
			if len(*got) != 1 {
				t.Fatalf("detections = %d, want 1", len(*got))
			}
			st := sys.Stats()
			if st.Released != 2 {
				t.Fatalf("released = %d, want 2 (both constituents, exactly once)", st.Released)
			}
		})
	}
}
