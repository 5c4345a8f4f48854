package ddetect

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/wire"
)

// newTwoSiteSystem builds the standard two-site fixture: a producer site
// "edge" and a hosting site "hub" with a SEQ rule.
func newTwoSiteSystem(t *testing.T, net network.Config) (*System, *Site, *Site) {
	t.Helper()
	sys := MustNewSystem(Config{Net: net})
	hub := sys.MustAddSite("hub", 0, 0)
	edge := sys.MustAddSite("edge", 20, 0)
	if err := sys.Declare("A", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if err := sys.Declare("B", event.Explicit); err != nil {
		t.Fatal(err)
	}
	return sys, hub, edge
}

func collect(t *testing.T, sys *System, name string) *[]*event.Occurrence {
	t.Helper()
	var got []*event.Occurrence
	// Subscribe hands out a borrow; Retain keeps the stored occurrences
	// (and their trees) out of the pool for the test's lifetime.
	if err := sys.Subscribe(name, func(o *event.Occurrence) { got = append(got, o.Retain()) }); err != nil {
		t.Fatal(err)
	}
	return &got
}

func TestCrossSiteSequenceDetected(t *testing.T) {
	sys, _, edge := newTwoSiteSystem(t, network.Config{BaseLatency: 30})
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "AB")

	edge.MustRaise("A", event.Explicit, nil)
	sys.Run(500, 50) // two granules later: unambiguously ordered
	hub := sys.Site("hub")
	hub.MustRaise("B", event.Explicit, nil)
	if err := sys.Settle(100); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1", len(*got))
	}
	occ := (*got)[0]
	if len(occ.Constituents) != 2 || occ.Constituents[0].Type != "A" || occ.Constituents[1].Type != "B" {
		t.Fatalf("constituents wrong: %v", occ)
	}
	if err := occ.Stamp.Valid(); err != nil {
		t.Fatalf("composite stamp invalid: %v", err)
	}
}

func TestConcurrentCrossSiteEventsDoNotSequence(t *testing.T) {
	sys, hub, edge := newTwoSiteSystem(t, network.Config{BaseLatency: 30})
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "AB")

	sys.Run(200, 50)
	// Raised at (nearly) the same instant at two sites: concurrent under
	// the 2g_g order, so the sequence must NOT fire.
	edge.MustRaise("A", event.Explicit, nil)
	hub.MustRaise("B", event.Explicit, nil)
	if err := sys.Settle(100); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatalf("concurrent events sequenced: %d detections", len(*got))
	}
	// AND on the same trace does fire (no ordering requirement).
	st := sys.Stats()
	if st.Released == 0 {
		t.Fatalf("events were never released to the detector")
	}
}

func TestConcurrentCrossSiteEventsConjoin(t *testing.T) {
	sys, hub, edge := newTwoSiteSystem(t, network.Config{BaseLatency: 30})
	if _, err := sys.DefineAt("hub", "Both", "A AND B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "Both")
	sys.Run(200, 50)
	edge.MustRaise("A", event.Explicit, nil)
	hub.MustRaise("B", event.Explicit, nil)
	if err := sys.Settle(100); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("AND detections = %d, want 1", len(*got))
	}
	if st := (*got)[0].Stamp; len(st) != 2 {
		t.Fatalf("concurrent AND stamp should keep both maxima: %s", st)
	}
}

// Network reordering must not produce out-of-order detection: B raised
// after A but delivered first still yields the sequence.
func TestJitterReorderingHandled(t *testing.T) {
	sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 10, Jitter: 200, Seed: 7}})
	hub := sys.MustAddSite("hub", 0, 0)
	edge := sys.MustAddSite("edge", 0, 0)
	_ = hub
	if err := sys.Declare("A", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if err := sys.Declare("B", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "AB")

	detected := 0
	for trial := 0; trial < 20; trial++ {
		edge.MustRaise("A", event.Explicit, nil)
		sys.Run(sys.Now()+300, 50)
		edge.MustRaise("B", event.Explicit, nil)
		sys.Run(sys.Now()+1000, 50)
		if err := sys.Settle(200); err != nil {
			t.Fatal(err)
		}
		if len(*got) != detected+1 {
			t.Fatalf("trial %d: detections = %d, want %d", trial, len(*got), detected+1)
		}
		detected++
	}
}

// Same-site pairs are ordered by local ticks even when their globals tie.
func TestSameSiteFineOrdering(t *testing.T) {
	sys, _, edge := newTwoSiteSystem(t, network.Config{BaseLatency: 5})
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "AB")
	sys.Run(1000, 100)
	edge.MustRaise("A", event.Explicit, nil)
	sys.Step(10) // one local tick later, same global granule
	edge.MustRaise("B", event.Explicit, nil)
	if err := sys.Settle(100); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("same-granule same-site sequence not detected: %d", len(*got))
	}
}

func TestDropAndRetransmitStillDetects(t *testing.T) {
	sys := MustNewSystem(Config{Net: network.Config{
		BaseLatency: 20, Jitter: 50, DropRate: 0.3, RetransmitDelay: 120, Seed: 99,
	}})
	sys.MustAddSite("hub", 0, 0)
	edge := sys.MustAddSite("edge", -20, 0)
	if err := sys.Declare("A", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if err := sys.Declare("B", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "AB")
	for i := 0; i < 10; i++ {
		edge.MustRaise("A", event.Explicit, nil)
		sys.Run(sys.Now()+300, 50)
		edge.MustRaise("B", event.Explicit, nil)
		sys.Run(sys.Now()+300, 50)
	}
	if err := sys.Settle(500); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 10 {
		t.Fatalf("detections = %d, want 10 despite drops", len(*got))
	}
	if sys.Stats().Net.Retransmitted == 0 {
		t.Fatalf("expected retransmissions with DropRate 0.3")
	}
}

func TestUnconsumedEventsCounted(t *testing.T) {
	sysU, _, edgeU := newTwoSiteSystem(t, network.Config{})
	edgeU.MustRaise("A", event.Explicit, nil) // no definitions at all
	if st := sysU.Stats(); st.Unconsumed != 1 {
		t.Fatalf("Unconsumed = %d, want 1", st.Unconsumed)
	}
}

func TestRaiseUnknownTypeFails(t *testing.T) {
	_, _, edge := newTwoSiteSystem(t, network.Config{})
	if _, err := edge.Raise("Nope", event.Explicit, nil); err == nil {
		t.Fatalf("unknown type must be rejected")
	}
}

func TestSealingForbidsLateTopologyChanges(t *testing.T) {
	sys, _, edge := newTwoSiteSystem(t, network.Config{})
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	edge.MustRaise("A", event.Explicit, nil) // seals
	if _, err := sys.AddSite("late", 0, 0); err != ErrSealed {
		t.Fatalf("late AddSite = %v, want ErrSealed", err)
	}
	if _, err := sys.DefineAt("hub", "X", "A AND B", detector.Recent); err != ErrSealed {
		t.Fatalf("late DefineAt = %v, want ErrSealed", err)
	}
}

func TestDefineAtErrors(t *testing.T) {
	sys, _, _ := newTwoSiteSystem(t, network.Config{})
	if _, err := sys.DefineAt("nosuch", "X", "A ; B", detector.Recent); err == nil {
		t.Fatalf("unknown host must be rejected")
	}
	if _, err := sys.DefineAt("hub", "X", "A ;;", detector.Recent); err == nil {
		t.Fatalf("syntax errors must surface")
	}
	if _, err := sys.DefineAt("hub", "X", "A ; Nope", detector.Recent); err == nil {
		t.Fatalf("undeclared events must be rejected")
	}
	if err := sys.Subscribe("absent", func(*event.Occurrence) {}); err == nil ||
		!strings.Contains(err.Error(), "absent") {
		t.Fatalf("Subscribe to unknown definition = %v", err)
	}
}

// Hierarchical mode: a composite defined at one site feeds a definition at
// another site.
func TestHierarchicalComposite(t *testing.T) {
	sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 10}})
	sys.MustAddSite("s1", 0, 0)
	sys.MustAddSite("s2", 0, 0)
	for _, n := range []string{"A", "B", "C"} {
		if err := sys.Declare(n, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("s1", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("s2", "ABC", "AB ; C", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "ABC")

	s1 := sys.Site("s1")
	s2 := sys.Site("s2")
	s1.MustRaise("A", event.Explicit, nil)
	sys.Run(300, 50)
	s1.MustRaise("B", event.Explicit, nil)
	sys.Run(600, 50)
	s2.MustRaise("C", event.Explicit, nil)
	if err := sys.Settle(200); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("hierarchical detections = %d, want 1", len(*got))
	}
	flat := (*got)[0].Flatten()
	if len(flat) != 3 || flat[0].Type != "A" || flat[2].Type != "C" {
		t.Fatalf("hierarchical constituents wrong: %v", flat)
	}
}

func TestLatencyStatsAccumulate(t *testing.T) {
	sys, _, edge := newTwoSiteSystem(t, network.Config{BaseLatency: 40})
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	edge.MustRaise("A", event.Explicit, nil)
	if err := sys.Settle(100); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Released != 1 || st.LatencySum <= 0 || st.MeanLatency() <= 0 {
		t.Fatalf("latency stats = %+v", st)
	}
	if st.LatencyMax < 40 {
		t.Fatalf("latency max %d must include network latency", st.LatencyMax)
	}
}

func TestClockSkewWithinPiStillExact(t *testing.T) {
	// Maximal allowed skew: offsets ±49 with Π=99.  Ordered events two
	// granules apart must still detect; the skewed stamps stay valid.
	sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 10}})
	sys.MustAddSite("hub", 49, 0)
	edge := sys.MustAddSite("edge", -49, 0)
	if err := sys.Declare("A", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if err := sys.Declare("B", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "AB")
	edge.MustRaise("A", event.Explicit, nil)
	sys.Run(500, 50)
	sys.Site("hub").MustRaise("B", event.Explicit, nil)
	if err := sys.Settle(200); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("skewed detections = %d, want 1", len(*got))
	}
}

func TestStampNowDerivesFromSiteClock(t *testing.T) {
	sys, hub, _ := newTwoSiteSystem(t, network.Config{})
	sys.Clock().AdvanceTo(12345)
	st := hub.StampNow()
	if st.Site != "hub" || st.Local != 1234 || st.Global != 123 {
		t.Fatalf("StampNow = %s", st)
	}
	if hub.Detector() == nil {
		t.Fatalf("Detector accessor broken")
	}
}

func TestRunStepValidation(t *testing.T) {
	sys, _, _ := newTwoSiteSystem(t, network.Config{})
	defer func() {
		if recover() == nil {
			t.Fatalf("Run with non-positive step must panic")
		}
	}()
	sys.Run(100, 0)
}

func TestSettleReportsNonQuiescence(t *testing.T) {
	// With an enormous latency, one settle step cannot drain the bus.
	sys, _, edge := newTwoSiteSystem(t, network.Config{BaseLatency: 1_000_000})
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	edge.MustRaise("A", event.Explicit, nil)
	if err := sys.Settle(1); err == nil {
		t.Fatalf("Settle must report non-quiescence")
	}
}

// The reorderer releases in a linear extension: a hub-local event and an
// edge event that happens-before it are published in happen-before order
// even though the local one arrives first.
func TestLinearExtensionAcrossSites(t *testing.T) {
	sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 500}}) // slow network
	hub := sys.MustAddSite("hub", 0, 0)
	edge := sys.MustAddSite("edge", 0, 0)
	if err := sys.Declare("A", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if err := sys.Declare("B", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "AB")
	edge.MustRaise("A", event.Explicit, nil) // slow to arrive
	sys.Run(300, 50)
	hub.MustRaise("B", event.Explicit, nil) // instantly at hub, but must wait
	if err := sys.Settle(300); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1 (A must be published before B)", len(*got))
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (uint64, float64) {
		sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 20, Jitter: 80, Seed: 5}})
		sys.MustAddSite("hub", 10, 0)
		edge := sys.MustAddSite("edge", -10, 5)
		_ = sys.Declare("A", event.Explicit)
		_ = sys.Declare("B", event.Explicit)
		if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			edge.MustRaise("A", event.Explicit, nil)
			sys.Run(sys.Now()+230, 40)
			edge.MustRaise("B", event.Explicit, nil)
			sys.Run(sys.Now()+170, 40)
		}
		if err := sys.Settle(500); err != nil {
			t.Fatal(err)
		}
		st := sys.Stats()
		return st.Detections, st.MeanLatency()
	}
	d1, l1 := runOnce()
	d2, l2 := runOnce()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("replay diverged: (%d, %f) vs (%d, %f)", d1, l1, d2, l2)
	}
	if d1 == 0 {
		t.Fatalf("replay detected nothing")
	}
}

func TestConfigDefaults(t *testing.T) {
	sys := MustNewSystem(Config{})
	if sys.cfg.Clock != clock.PaperConfig() {
		t.Errorf("default clock config not PaperConfig: %+v", sys.cfg.Clock)
	}
	if sys.cfg.HeartbeatEvery != clock.PaperConfig().GlobalGranularity {
		t.Errorf("default heartbeat = %d", sys.cfg.HeartbeatEvery)
	}
}

func TestReordererRejectsAnomalies(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b"})
	a := roster.MustSite("a")
	r := newReorderer(roster)
	if err := r.accept(core.Site(99), 1, wire.Envelope{Kind: wire.KindHeartbeat, Global: 1}); err == nil {
		t.Errorf("unknown source must be rejected")
	}
	if err := r.accept(core.NoSite, 1, wire.Envelope{Kind: wire.KindHeartbeat, Global: 1}); err == nil {
		t.Errorf("NoSite source must be rejected")
	}
	if err := r.accept(a, 1, wire.Envelope{Kind: wire.KindHeartbeat, Global: 1}); err != nil {
		t.Errorf("in-order accept failed: %v", err)
	}
	if err := r.accept(a, 1, wire.Envelope{Kind: wire.KindHeartbeat, Global: 2}); err == nil {
		t.Errorf("replayed seq must be rejected")
	}
	if err := r.accept(a, 3, wire.Envelope{Kind: wire.KindHeartbeat, Global: 3}); err != nil {
		t.Errorf("gap buffering failed: %v", err)
	}
	if err := r.accept(a, 3, wire.Envelope{Kind: wire.KindHeartbeat, Global: 3}); err == nil {
		t.Errorf("duplicate buffered seq must be rejected")
	}
}

func TestSelfReordererHearsOnlyItself(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b", "c"})
	self := roster.MustSite("b")
	r := newSelfReorderer(roster, self)
	if err := r.accept(roster.MustSite("a"), 1, wire.Envelope{Kind: wire.KindHeartbeat, Global: 1}); err == nil {
		t.Errorf("foreign source accepted by self-only reorderer")
	}
	occ := event.NewPrimitive("A", event.Explicit, core.DeriveStamp("b", 100, 10), nil)
	if err := r.accept(self, 1, wire.Envelope{Kind: wire.KindEvent, Occ: occ}); err != nil {
		t.Fatal(err)
	}
	// Only its own frontier gates: the event's own stamp put the frontier
	// at 10, so total order needs 11.
	r.setFrontier(self, 11)
	if n := len(r.releaseInto(nil)); n != 1 {
		t.Fatalf("self-only release = %d, want 1", n)
	}
}

func TestReleaseWaitsForAllFrontiers(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b"})
	a, b := roster.MustSite("a"), roster.MustSite("b")
	r := newReorderer(roster)
	occ := event.NewPrimitive("A", event.Explicit, core.DeriveStamp("a", 100, 10), nil)
	if err := r.accept(a, 1, wire.Envelope{Kind: wire.KindEvent, Occ: occ}); err != nil {
		t.Fatal(err)
	}
	if n := len(r.releaseInto(nil)); n != 0 {
		t.Fatalf("released %d before source b ever spoke", n)
	}
	// b at 9 may still send an event at 10 or below that sorts first.
	if err := r.accept(b, 1, wire.Envelope{Kind: wire.KindHeartbeat, Global: 9}); err != nil {
		t.Fatal(err)
	}
	if n := len(r.releaseInto(nil)); n != 0 {
		t.Fatalf("released %d with source b at 9, want 0", n)
	}
	// b at 10 sorts after a: nothing still to arrive can precede a's event.
	if err := r.accept(b, 2, wire.Envelope{Kind: wire.KindHeartbeat, Global: 10}); err != nil {
		t.Fatal(err)
	}
	if n := len(r.releaseInto(nil)); n != 1 {
		t.Fatalf("released %d after frontiers caught up, want 1", n)
	}
}

// TestTotalOrderReleaseIsStricter pins the site-ordered total-order rule
// case by case, for an event keyed by source b at global 10 among sources
// a < b < c: nothing while any frontier is below 10,
// held by a lower-index source whose frontier is still 10, not held by a
// higher-index one or by b itself at 10, and held by any source at 10
// that forwards composites, whatever its index.  A composite forwarded by
// c and keyed by b is held by b at 10 as well: b's own events still in
// flight may sort below it.
func TestTotalOrderReleaseIsStricter(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b", "c"})
	a, b, c := roster.MustSite("a"), roster.MustSite("b"), roster.MustSite("c")
	prim := event.NewPrimitive("B", event.Explicit, core.DeriveStamp("b", 100, 10), nil)
	type frontier struct {
		from   core.Site
		global int64
	}
	for _, tc := range []struct {
		name      string
		forwarder core.Site // core.NoSite: no source forwards composites
		via       core.Site // the stream the event arrives on: b, or the forwarder
		steps     []frontier
		want      []int // released after each step
	}{
		// min frontier 9 holds it; a at 10 sorts below b and still holds
		// it; a past 10 releases with b (own source) and c (higher index)
		// at 10.
		{"lower index holds", core.NoSite, b,
			[]frontier{{c, 10}, {a, 9}, {a, 10}, {a, 11}}, []int{0, 0, 0, 1}},
		// c at 10 sorts above b: it holds nothing once a has passed 10.
		{"higher index does not", core.NoSite, b,
			[]frontier{{a, 11}, {c, 9}, {c, 10}}, []int{0, 0, 1}},
		// b's own later events sort after the held one: FIFO order, a
		// monotone local clock and the arrival tie-break.
		{"own source does not", core.NoSite, b,
			[]frontier{{c, 11}, {a, 11}}, []int{0, 1}},
		// A composite from c may carry any site at global 10, so c must
		// pass 10 even though its index is above b's.
		{"forwarder holds", c, b,
			[]frontier{{a, 11}, {c, 10}, {c, 11}}, []int{0, 0, 1}},
		{"keyed source holds a forwarded composite", c, c,
			[]frontier{{a, 11}, {c, 11}, {b, 10}, {b, 11}}, []int{0, 0, 0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReorderer(roster)
			if tc.forwarder != core.NoSite {
				r.forwarding(tc.forwarder)
			}
			occ := prim
			if tc.via != b {
				occ = event.NewComposite("C", roster.ID(tc.via), prim)
			}
			seqs := map[core.Site]uint64{tc.via: 1}
			if err := r.accept(tc.via, 1, wire.Envelope{Kind: wire.KindEvent, Occ: occ}); err != nil {
				t.Fatal(err)
			}
			for k, f := range tc.steps {
				seqs[f.from]++
				if err := r.accept(f.from, seqs[f.from], wire.Envelope{Kind: wire.KindHeartbeat, Global: f.global}); err != nil {
					t.Fatal(err)
				}
				if n := len(r.releaseInto(nil)); n != tc.want[k] {
					t.Fatalf("after frontier %s=%d: released %d, want %d",
						roster.ID(f.from), f.global, n, tc.want[k])
				}
			}
		})
	}
}

// TestSealMarksCompositeForwarders pins the wiring of the forwarder
// guard: sealing marks, in each sink's reorderer, exactly the hosts that
// forward a composite definition to it.
func TestSealMarksCompositeForwarders(t *testing.T) {
	sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 10}})
	for _, id := range []core.SiteID{"s1", "s2", "s3"} {
		sys.MustAddSite(id, 0, 0)
	}
	for _, n := range []string{"A", "B", "C"} {
		if err := sys.Declare(n, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("s1", "L1", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("s2", "L2", "L1 ; C", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	sys.seal()
	s1 := sys.roster.MustSite("s1")
	for _, s := range sys.sites {
		if s.re.self != core.NoSite {
			continue // hears nobody but itself
		}
		for i, src := range s.re.sources {
			want := core.Site(i)
			if s.ID == "s2" && want == s1 {
				want = forwarderSite
			}
			if src.rank != want {
				t.Errorf("%s's reorderer ranks source %d at %d, want %d", s.ID, i, src.rank, want)
			}
		}
	}
}

// Three-level hierarchical composition across three sites.
func TestThreeLevelHierarchy(t *testing.T) {
	sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 10}})
	for _, id := range []core.SiteID{"s1", "s2", "s3"} {
		sys.MustAddSite(id, 0, 0)
	}
	for _, n := range []string{"A", "B", "C", "D"} {
		if err := sys.Declare(n, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("s1", "L1", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("s2", "L2", "L1 ; C", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DefineAt("s3", "L3", "L2 ; D", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sys, "L3")
	raise := func(site core.SiteID, typ string) {
		sys.Site(site).MustRaise(typ, event.Explicit, nil)
		sys.Run(sys.Now()+400, 50)
	}
	raise("s1", "A")
	raise("s1", "B")
	raise("s2", "C")
	raise("s3", "D")
	if err := sys.Settle(500); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("three-level detections = %d, want 1", len(*got))
	}
	flat := (*got)[0].Flatten()
	if len(flat) != 4 || flat[0].Type != "A" || flat[3].Type != "D" {
		t.Fatalf("constituents = %v", flat)
	}
	if err := (*got)[0].Stamp.Valid(); err != nil {
		t.Fatalf("stamp invalid: %v", err)
	}
}

// The watermark reorderer's releases never violate the publish-order
// contract, verified by the detector's built-in order checker under
// jitter and skew.
func TestReleaseOrderPassesOrderCheck(t *testing.T) {
	sys := MustNewSystem(Config{Net: network.Config{BaseLatency: 20, Jitter: 90, Seed: 6}})
	hub := sys.MustAddSite("hub", 30, 0)
	edge := sys.MustAddSite("edge", -30, 0)
	for _, n := range []string{"A", "B"} {
		if err := sys.Declare(n, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	hub.Detector().SetOrderChecking(true)
	for i := 0; i < 40; i++ {
		src := []*Site{hub, edge}[i%2]
		src.MustRaise([]string{"A", "B"}[i%2], event.Explicit, nil)
		sys.Run(sys.Now()+150, 50)
	}
	if err := sys.Settle(1_000); err != nil {
		t.Fatal(err)
	}
	if v := hub.Detector().OrderViolations(); v != 0 {
		t.Fatalf("reorderer output violated publish order %d times", v)
	}
}

// The Section 3.1 simultaneity assumptions: with enforcement on, two
// explicit events at one site within the same local tick are rejected.
func TestSimultaneityEnforcement(t *testing.T) {
	sys := MustNewSystem(Config{EnforceSimultaneity: true})
	edge := sys.MustAddSite("edge", 0, 0)
	if err := sys.Declare("A", event.Explicit); err != nil {
		t.Fatal(err)
	}
	if err := sys.Declare("Tmp", event.Temporal); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.Raise("A", event.Explicit, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.Raise("A", event.Explicit, nil); err == nil {
		t.Fatalf("simultaneous explicit events accepted")
	}
	// Temporal events are exempt (assumption 1 even requires them).
	if _, err := edge.Raise("Tmp", event.Temporal, nil); err != nil {
		t.Fatalf("temporal event rejected: %v", err)
	}
	// One local tick later the next explicit event is fine.
	sys.Step(10)
	if _, err := edge.Raise("A", event.Explicit, nil); err != nil {
		t.Fatalf("raise after a tick failed: %v", err)
	}
}

// Without enforcement (the default), same-tick raises are allowed and
// yield simultaneous stamps.
func TestSimultaneityDefaultOff(t *testing.T) {
	sys := MustNewSystem(Config{})
	edge := sys.MustAddSite("edge", 0, 0)
	if err := sys.Declare("A", event.Explicit); err != nil {
		t.Fatal(err)
	}
	o1 := edge.MustRaise("A", event.Explicit, nil)
	o2 := edge.MustRaise("A", event.Explicit, nil)
	if !o1.Stamp[0].Simultaneous(o2.Stamp[0]) {
		t.Fatalf("expected simultaneous stamps, got %s and %s", o1.Stamp, o2.Stamp)
	}
}
