package denote

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
)

// The keystone property: on totally ordered histories, the incremental
// detector in the Unrestricted context produces exactly the detections the
// paper's denotational formulas enumerate.

// randomHistory builds a single-site, strictly increasing trace over the
// given types.
func randomHistory(seed int64, n int, types []string) []*event.Occurrence {
	r := rand.New(rand.NewSource(seed))
	occs := make([]*event.Occurrence, n)
	for i := range occs {
		occs[i] = event.NewPrimitive(types[r.Intn(len(types))], event.Explicit,
			core.DeriveStamp("s1", int64(i)*25, 10), event.Params{"n": i})
	}
	return occs
}

// engineDetections replays the history through the incremental detector
// and returns sorted detection keys.
func engineDetections(t *testing.T, expression string, history []*event.Occurrence) []string {
	t.Helper()
	reg := event.NewRegistry()
	for _, n := range []string{"A", "B", "C"} {
		reg.MustDeclare(n, event.Explicit)
	}
	d := detector.New("s1", reg, nil)
	if _, err := d.DefineString("X", expression, detector.Unrestricted); err != nil {
		t.Fatal(err)
	}
	var dets []Detection
	d.Subscribe("X", func(o *event.Occurrence) {
		dets = append(dets, Detection{Constituents: o.Flatten()})
	})
	for _, o := range history {
		d.Publish(o)
	}
	return keys(dets)
}

// oracleDetections evaluates the denotational formula on the same history.
func oracleDetections(h *History, expression string) []string {
	switch expression {
	case "A OR B":
		return keys(Or(h.Of("A"), h.Of("B")))
	case "A AND B":
		return keys(And(h.Of("A"), h.Of("B")))
	case "A ; B":
		return keys(Seq(h.Of("A"), h.Of("B")))
	case "NOT(B)[A, C]":
		return keys(Not(h.Of("B"), h.Of("A"), h.Of("C")))
	case "NOT(C)[A, B]":
		return keys(Not(h.Of("C"), h.Of("A"), h.Of("B")))
	case "A(A, B, C)":
		return keys(Aperiodic(h.Of("A"), h.Of("B"), h.Of("C")))
	case "ANY(2, A, B, C)":
		return keys(Any(2, h.Of("A"), h.Of("B"), h.Of("C")))
	}
	panic("no oracle for " + expression)
}

// keys returns the sorted keys of a set of detections.
func keys(dets []Detection) []string {
	out := make([]string, len(dets))
	for i, d := range dets {
		out[i] = Key(d)
	}
	sort.Strings(out)
	return out
}

// diffKeys counts the keys of want missing from got, and got's extra keys.
func diffKeys(got, want []string) (misses, extras int) {
	count := map[string]int{}
	for _, k := range want {
		count[k]++
	}
	for _, k := range got {
		count[k]--
	}
	for _, c := range count {
		misses, extras = misses+max(c, 0), extras+max(-c, 0)
	}
	return misses, extras
}

// concurrentHistory builds 40 raises, each at a random one of three sites
// whose clock, started at 0, 7 or 14, advances 5–24 ticks: many cross-site
// pairs fall inside Def. 4.7's guard band, so "<" leaves orders open.
func concurrentHistory(r *rand.Rand) []*event.Occurrence {
	sites, clocks := []core.SiteID{"s1", "s2", "s3"}, []int64{0, 7, 14}
	history := make([]*event.Occurrence, 40)
	for i := range history {
		s := r.Intn(3)
		clocks[s] += 5 + r.Int63n(20)
		history[i] = event.NewPrimitive([]string{"A", "B", "C"}[r.Intn(3)], event.Explicit,
			core.DeriveStamp(sites[s], clocks[s], 10), nil)
	}
	return history
}

// randomLinearExtension returns a random delivery order that linearly
// extends "<": it repeatedly draws a remaining minimal occurrence.
func randomLinearExtension(r *rand.Rand, history []*event.Occurrence) []*event.Occurrence {
	left := append([]*event.Occurrence(nil), history...)
	out := make([]*event.Occurrence, 0, len(history))
	for len(left) > 0 {
		var minimal []int
	candidates:
		for i, o := range left {
			for _, p := range left {
				if event.StampLess(p, o) {
					continue candidates
				}
			}
			minimal = append(minimal, i)
		}
		i := minimal[r.Intn(len(minimal))]
		out = append(out, left[i])
		left = append(left[:i], left[i+1:]...)
	}
	return out
}

// TestDetectorMatchesDenotationalSemantics is the correctness ratchet: each
// row replays 8 totally ordered histories and 20 concurrent ones, each in 5
// random linear extensions of "<".  A closed row matches the oracle on all
// (finding 1); an open row asserts its finding's signature until fixed.
func TestDetectorMatchesDenotationalSemantics(t *testing.T) {
	type trial struct {
		history []*event.Occurrence
		orders  [][]*event.Occurrence
		total   bool // totally ordered: open rows must match too
	}
	var trials []trial
	for seed := int64(1); seed <= 8; seed++ {
		h := randomHistory(seed, 40, []string{"A", "B", "C"})
		trials = append(trials, trial{h, [][]*event.Occurrence{h}, true})
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := trial{history: concurrentHistory(r)}
		// Finding 5: A(E1, E2, E3) and NOT(E3)[E1, E2] are one formula.
		h := NewHistory(tr.history)
		if m, x := diffKeys(oracleDetections(h, "NOT(C)[A, B]"), oracleDetections(h, "A(A, B, C)")); m+x > 0 {
			t.Fatalf("seed %d: denote.Not(C, A, B) misses %d and adds %d of denote.Aperiodic(A, B, C)", seed, m, x)
		}
		for range 5 {
			tr.orders = append(tr.orders, randomLinearExtension(r, tr.history))
		}
		trials = append(trials, tr)
	}
	for _, row := range []struct{ expression, open string }{
		{"A OR B", ""},
		{"A AND B", ""},
		{"A ; B", ""},
		{"NOT(B)[A, C]", ""},
		// aperiodicNode loses a B released after, but concurrent with, the
		// first C that closes its window.  Item 19 closes the row.
		{"A(A, B, C)", "finding 2"},
		{"ANY(2, A, B, C)", ""},
		// Finding 5: the engine's NOT computes A's formula.
		{"NOT(C)[A, B]", ""},
	} {
		t.Run(row.expression, func(t *testing.T) {
			misses, extras := 0, 0
			for i, tr := range trials {
				want := oracleDetections(NewHistory(tr.history), row.expression)
				if len(want) == 0 && tr.total && row.expression != "NOT(B)[A, C]" {
					t.Fatalf("history %d: degenerate for %s", i, row.expression)
				}
				for k, order := range tr.orders {
					got := engineDetections(t, row.expression, order)
					m, x := diffKeys(got, want)
					if m+x > 0 && (row.open == "" || tr.total) {
						t.Fatalf("history %d, order %d: the engine misses %d and adds %d of the oracle's %d\n engine: %v\n oracle: %v",
							i, k, m, x, len(want), got, want)
					}
					misses, extras = misses+m, extras+x
				}
			}
			if row.open != "" {
				t.Logf("%s: %d misses, %d extras", row.open, misses, extras)
				if misses == 0 || extras > 0 {
					t.Fatalf("%s changed: its signature is misses > 0 and extras = 0", row.open)
				}
			}
		})
	}
}

// The oracle also agrees on multi-site histories when the publication
// order is a linear extension and events are spaced beyond concurrency
// (every event two granules after the previous one).
func TestOracleMultiSiteWellSeparated(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sites := []core.SiteID{"s1", "s2", "s3"}
	types := []string{"A", "B", "C"}
	var history []*event.Occurrence
	for i := 0; i < 30; i++ {
		history = append(history, event.NewPrimitive(types[r.Intn(3)], event.Explicit,
			core.DeriveStamp(sites[r.Intn(3)], int64(i)*25, 10), nil))
	}
	for _, expression := range []string{"A ; B", "NOT(B)[A, C]", "A AND B"} {
		want := oracleDetections(NewHistory(history), expression)
		if m, x := diffKeys(engineDetections(t, expression, history), want); m+x > 0 {
			t.Fatalf("%s: engine misses %d and adds %d of the oracle's %d", expression, m, x, len(want))
		}
	}
}

func TestOracleHelpers(t *testing.T) {
	a := event.NewPrimitive("A", event.Explicit, core.DeriveStamp("s1", 10, 10), nil)
	b := event.NewPrimitive("B", event.Explicit, core.DeriveStamp("s1", 40, 10), nil)
	h := NewHistory([]*event.Occurrence{a, b})
	if len(h.Of("A")) != 1 || len(h.Of("B")) != 1 || len(h.Of("C")) != 0 {
		t.Fatalf("history indexing broken")
	}
	seq := Seq(h.Of("A"), h.Of("B"))
	if len(seq) != 1 {
		t.Fatalf("Seq = %d detections", len(seq))
	}
	if !seq[0].Stamp.Equal(b.Stamp) {
		t.Fatalf("Seq stamp = %s, want terminator's", seq[0].Stamp)
	}
	rev := Seq(h.Of("B"), h.Of("A"))
	if len(rev) != 0 {
		t.Fatalf("reverse Seq must be empty")
	}
	if Key(seq[0]) != "A@s1:10;B@s1:40;" {
		t.Fatalf("Key = %q", Key(seq[0]))
	}
}

func TestItoa(t *testing.T) {
	cases := map[int64]string{0: "0", 7: "7", 120: "120", -5: "-5"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q", in, got)
		}
	}
}
