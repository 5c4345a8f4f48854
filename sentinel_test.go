package sentinel_test

import (
	"fmt"
	"sort"
	"testing"

	sentinel "repro"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
	"repro/internal/workload"
)

// TestFacadeQuickstart exercises the public API end to end, mirroring
// examples/quickstart.
func TestFacadeQuickstart(t *testing.T) {
	sys := sentinel.MustNewSystem(sentinel.SystemConfig{
		Net: sentinel.NetConfig{BaseLatency: 20, Jitter: 40, Seed: 1},
	})
	ny := sys.MustAddSite("ny", -30, 0)
	ldn := sys.MustAddSite("ldn", 40, 0)
	for _, typ := range []string{"Buy", "Sell"} {
		if err := sys.Declare(typ, sentinel.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("ny", "RoundTrip", "Buy ; Sell", sentinel.Chronicle); err != nil {
		t.Fatal(err)
	}
	var got []*sentinel.Occurrence
	if err := sys.Subscribe("RoundTrip", func(o *sentinel.Occurrence) { got = append(got, o.Retain()) }); err != nil {
		t.Fatal(err)
	}
	ldn.MustRaise("Buy", sentinel.Explicit, sentinel.Params{"qty": 100})
	sys.Run(sys.Now()+400, 50)
	ny.MustRaise("Sell", sentinel.Explicit, sentinel.Params{"qty": 100})
	if err := sys.Settle(100); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("detections = %d, want 1", len(got))
	}
	if err := got[0].Stamp.Valid(); err != nil {
		t.Fatalf("stamp invalid: %v", err)
	}
}

// TestFacadeAlgebraExports sanity-checks the re-exported algebra.
func TestFacadeAlgebraExports(t *testing.T) {
	a := sentinel.DeriveStamp("x", 100, 10)
	b := sentinel.DeriveStamp("y", 110, 10) // one granule apart: concurrent
	set := sentinel.NewSetStamp(a, b)
	if len(set) != 2 {
		t.Fatalf("NewSetStamp = %v", set)
	}
	m := sentinel.Max(sentinel.NewSetStamp(a), sentinel.NewSetStamp(b))
	if !m.Equal(set) {
		t.Fatalf("Max = %v, want %v", m, set)
	}
	if _, err := sentinel.ParseExpr("A1 ; B1"); err != nil {
		t.Fatalf("ParseExpr: %v", err)
	}
	if sentinel.PaperClockConfig().GlobalGranularity != 100 {
		t.Fatalf("PaperClockConfig drifted")
	}
}

// sigOf renders an occurrence's flattened constituents for comparison.
func sigOf(o *event.Occurrence) string {
	s := o.Type + "["
	for _, c := range o.Flatten() {
		s += fmt.Sprintf("%s@%s:%d ", c.Type, c.Site, c.Stamp[0].Local)
	}
	return s + "]"
}

// TestDistributedMatchesCentralized is the keystone integration test: the
// same workload detected (a) distributed across sites with network delays
// and watermark reordering, and (b) centrally, publishing the identical
// stamped occurrences in linear-extension order, must yield exactly the
// same composite occurrences.  This is the operational content of the
// paper's claim that the timestamp algebra gives distributed detection a
// well-defined semantics.
func TestDistributedMatchesCentralized(t *testing.T) {
	defs := []struct {
		name, expr string
		ctx        detector.Context
	}{
		{"Seq", "A ; B", detector.Chronicle},
		{"Conj", "C AND D", detector.Chronicle},
		{"Guard", "NOT(C)[A, D]", detector.Chronicle},
		{"Sweep", "A*(A, B, C)", detector.Continuous},
		{"Pick", "ANY(2, A, B, C)", detector.Recent},
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			siteIDs := []core.SiteID{"s0", "s1", "s2", "s3"}
			trace := workload.GenStream(workload.StreamConfig{
				Sites: siteIDs, Types: []string{"A", "B", "C", "D"},
				MeanGap: 80, Count: 400, Seed: seed,
			})

			// --- distributed run, adversarial network ---
			sys := sentinel.MustNewSystem(sentinel.SystemConfig{
				Net: network.Config{BaseLatency: 25, Jitter: 90, DropRate: 0.05,
					RetransmitDelay: 150, Seed: seed},
			})
			for i, id := range siteIDs {
				sys.MustAddSite(id, int64(i*13)-20, 0)
			}
			for _, typ := range []string{"A", "B", "C", "D"} {
				if err := sys.Declare(typ, sentinel.Explicit); err != nil {
					t.Fatal(err)
				}
			}
			var distGot []string
			for _, d := range defs {
				if _, err := sys.DefineAt("s0", d.name, d.expr, d.ctx); err != nil {
					t.Fatal(err)
				}
				if err := sys.Subscribe(d.name, func(o *event.Occurrence) {
					distGot = append(distGot, sigOf(o))
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Raise the trace and remember each occurrence's stamp.  The
			// stamp is copied out immediately: a Raise-returned occurrence
			// is a borrow, valid only until the next Step consumes its
			// deliveries (the pool may then recycle it).
			type raisedEvent struct {
				typ   string
				stamp core.Stamp
			}
			var raised []raisedEvent
			for _, item := range trace.Items {
				sys.Run(item.At, 50)
				o := sys.Site(item.Site).MustRaise(item.Type, sentinel.Explicit, nil)
				raised = append(raised, raisedEvent{typ: o.Type, stamp: o.Stamp[0]})
			}
			if err := sys.Settle(50_000); err != nil {
				t.Fatal(err)
			}

			// --- centralized oracle: same stamped occurrences, published
			// in the linear-extension order (global, site, local) ---
			sorted := append([]raisedEvent{}, raised...)
			sort.SliceStable(sorted, func(i, j int) bool {
				a, b := sorted[i].stamp, sorted[j].stamp
				if a.Global != b.Global {
					return a.Global < b.Global
				}
				if a.Site != b.Site {
					return a.Site < b.Site
				}
				return a.Local < b.Local
			})
			reg := event.NewRegistry()
			for _, typ := range []string{"A", "B", "C", "D"} {
				reg.MustDeclare(typ, event.Explicit)
			}
			det := detector.New("oracle", reg, nil)
			var centGot []string
			for _, d := range defs {
				if _, err := det.DefineString(d.name, d.expr, d.ctx); err != nil {
					t.Fatal(err)
				}
				det.Subscribe(d.name, func(o *event.Occurrence) {
					centGot = append(centGot, sigOf(o))
				})
			}
			for _, o := range sorted {
				det.Publish(event.NewPrimitive(o.typ, event.Explicit, o.stamp, nil))
			}

			// --- compare (order-insensitive across definitions, since
			// the two engines interleave definition outputs differently;
			// multiset equality is the correctness criterion) ---
			if !equalMultiset(distGot, centGot) {
				t.Fatalf("distributed and centralized detections differ:\n dist (%d): %v\n cent (%d): %v",
					len(distGot), distGot, len(centGot), centGot)
			}
			if len(distGot) == 0 {
				t.Fatalf("degenerate run: nothing detected")
			}
		})
	}
}

func equalMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int, len(a))
	for _, s := range a {
		count[s]++
	}
	for _, s := range b {
		count[s]--
		if count[s] < 0 {
			return false
		}
	}
	return true
}

// TestFacadeActiveDBAndRules mirrors examples/audittrail through the
// facade types.
func TestFacadeActiveDBAndRules(t *testing.T) {
	sys := sentinel.MustNewSystem(sentinel.SystemConfig{})
	site := sys.MustAddSite("branch", 0, 0)
	for _, typ := range []string{"Acct.insert", "Acct.update", "Acct.delete", "Acct.retrieve",
		"tx.begin", "tx.commit", "tx.abort"} {
		if err := sys.Declare(typ, sentinel.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("branch", "Move", "Acct.update ; tx.commit", sentinel.Recent); err != nil {
		t.Fatal(err)
	}
	store := sentinel.NewStore(sinkThroughSite{sys: sys, site: site})
	if err := store.DeclareClass("Acct"); err != nil {
		t.Fatal(err)
	}
	mgr := sentinel.NewRuleManager(site.Detector(), 4)
	fired := 0
	if _, err := mgr.Add(sentinel.Rule{
		Name: "on-move", EventName: "Move",
		Action: func(*sentinel.Occurrence) error { fired++; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	tx := store.Begin()
	obj, err := tx.Insert("Acct", map[string]any{"bal": 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(obj.OID, map[string]any{"bal": 20}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Settle(100); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("rule fired %d times, want 1", fired)
	}
}

// sinkThroughSite stamps store events with the site clock, advancing one
// local tick per raise so database events are never simultaneous (the
// paper's Section 3.1 assumption).
type sinkThroughSite struct {
	sys  *sentinel.System
	site *sentinel.Site
}

func (s sinkThroughSite) RaiseDB(typ string, class sentinel.Class, params sentinel.Params) {
	s.sys.Step(10)
	s.site.MustRaise(typ, class, params)
	s.sys.Step(10)
}

// TestFacadePipelineConfig exercises the staged pipeline through the
// public API: per-stage stats via SystemStats.Stages and the StageEvent
// instrumentation hook.
func TestFacadePipelineConfig(t *testing.T) {
	stageTicks := map[string]uint64{}
	sys := sentinel.MustNewSystem(sentinel.SystemConfig{
		Net: sentinel.NetConfig{BaseLatency: 15, Jitter: 25, Seed: 2},
		Pipeline: sentinel.PipelineConfig{
			OnStage: func(ev sentinel.StageEvent) { stageTicks[ev.Stage]++ },
		},
	})
	a := sys.MustAddSite("a", -10, 0)
	sys.MustAddSite("hub1", 0, 0)
	sys.MustAddSite("hub2", 10, 0)
	for _, typ := range []string{"A", "B"} {
		if err := sys.Declare(typ, sentinel.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	for _, host := range []sentinel.SiteID{"hub1", "hub2"} {
		if _, err := sys.DefineAt(host, "AB@"+string(host), "A ; B", sentinel.Chronicle); err != nil {
			t.Fatal(err)
		}
	}
	detections := 0
	if err := sys.Subscribe("AB@hub1", func(*sentinel.Occurrence) { detections++ }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a.MustRaise("A", sentinel.Explicit, nil)
		sys.Run(sys.Now()+200, 50)
		a.MustRaise("B", sentinel.Explicit, nil)
		sys.Run(sys.Now()+200, 50)
	}
	if err := sys.Settle(10_000); err != nil {
		t.Fatal(err)
	}
	if detections == 0 {
		t.Fatalf("no detections")
	}
	st := sys.Stats()
	if len(st.Stages) != 5 {
		t.Fatalf("got %d stage stats, want 5", len(st.Stages))
	}
	for _, sg := range st.Stages {
		if stageTicks[sg.Name] != sg.Ticks {
			t.Fatalf("hook saw %d %q ticks, stats say %d", stageTicks[sg.Name], sg.Name, sg.Ticks)
		}
		if sg.Hist.Total() != sg.Ticks {
			t.Fatalf("stage %q histogram has %d samples over %d ticks", sg.Name, sg.Hist.Total(), sg.Ticks)
		}
	}
}
