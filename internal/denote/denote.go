// Package denote implements the paper's *denotational* operator semantics
// (Sections 3.2 and 5.3) by brute force: given the complete history of
// primitive occurrences, it enumerates every instant at which a composite
// event expression is true, directly from the formulas
//
//	(E1 ∧ E2)(ts) ⇔ ∃t1,t2: E1(t1) ∧ E2(t2)            (conjunction)
//	(E1 ; E2)(ts) ⇔ ∃t1,t2: E1(t1) ∧ E2(t2) ∧ t1 < t2  (sequence)
//	(E1 ∨ E2)(ts) ⇔ E1(ts) ∨ E2(ts)                    (disjunction)
//	¬(E2)(E1,E3)(ts) ⇔ ∃t1: E1(t1) ∧ E3(ts) ∧ t1 < ts
//	                     ∧ ¬∃t2: E2(t2) ∧ t1 < t2 < ts (NOT)
//	A(E1,E2,E3)(ts) ⇔ ∃t1: E1(t1) ∧ E2(ts) ∧ t1 < ts
//	                     ∧ ¬∃t3: E3(t3) ∧ t1 < t3 < ts (aperiodic)
//
// with each detected instant's timestamp the Max of its constituents'
// (Definition 5.9).  The complexity is polynomial in the history length —
// useless as an engine, perfect as an oracle: the incremental detector of
// internal/detector, run in the Unrestricted context, must produce exactly
// these detections.  The comparison is exact for histories published in an
// order where the linear extension equals the stamp order (e.g. totally
// ordered single-site histories); see the tests.
package denote

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/event"
)

// History is a complete, finished trace of primitive occurrences.
type History struct {
	byType map[string][]*event.Occurrence
}

// NewHistory indexes a trace by event type.
func NewHistory(occs []*event.Occurrence) *History {
	h := &History{byType: make(map[string][]*event.Occurrence)}
	for _, o := range occs {
		h.byType[o.Type] = append(h.byType[o.Type], o)
	}
	return h
}

// Detection is one instant at which a composite expression is true.
type Detection struct {
	// Stamp is Max over the constituents' timestamps.
	Stamp core.SetStamp
	// Constituents are the primitive occurrences witnessing the formula,
	// in the operator's canonical order.
	Constituents []*event.Occurrence
}

// Of returns the occurrences of a primitive type, as singleton detections.
func (h *History) Of(name string) []Detection {
	occs := h.byType[name]
	out := make([]Detection, len(occs))
	for i, o := range occs {
		out[i] = Detection{Stamp: o.Stamp, Constituents: []*event.Occurrence{o}}
	}
	return out
}

// Or enumerates (E1 ∨ E2): every occurrence of either constituent.
func Or(a, b []Detection) []Detection {
	out := append(append([]Detection{}, a...), b...)
	return canonical(out)
}

// And enumerates (E1 ∧ E2): every pair, in either order, stamped with the
// Max of the pair.
func And(a, b []Detection) []Detection {
	var out []Detection
	for _, x := range a {
		for _, y := range b {
			out = append(out, combine(x, y))
		}
	}
	return canonical(out)
}

// Seq enumerates (E1 ; E2): pairs with T(e1) < T(e2) under the composite
// happen-before order.
func Seq(a, b []Detection) []Detection {
	var out []Detection
	for _, x := range a {
		for _, y := range b {
			if x.Stamp.Less(y.Stamp) {
				out = append(out, combine(x, y))
			}
		}
	}
	return canonical(out)
}

// Not enumerates NOT(E2)[E1, E3]: initiator/terminator pairs with no
// occurrence of the absent event strictly inside the open interval.
func Not(absent, initiators, terminators []Detection) []Detection {
	var out []Detection
	for _, e1 := range initiators {
		for _, e3 := range terminators {
			if !e1.Stamp.Less(e3.Stamp) {
				continue
			}
			spoiled := false
			for _, e2 := range absent {
				if e2.Stamp.InOpenSet(e1.Stamp, e3.Stamp) {
					spoiled = true
					break
				}
			}
			if !spoiled {
				out = append(out, combine(e1, e3))
			}
		}
	}
	return canonical(out)
}

// Aperiodic enumerates A(E1, E2, E3): each monitored occurrence inside an
// interval opened by E1 and not yet closed by an E3.
func Aperiodic(initiators, monitored, terminators []Detection) []Detection {
	var out []Detection
	for _, e1 := range initiators {
		for _, e2 := range monitored {
			if !e1.Stamp.Less(e2.Stamp) {
				continue
			}
			closed := false
			for _, e3 := range terminators {
				if e3.Stamp.InOpenSet(e1.Stamp, e2.Stamp) {
					closed = true
					break
				}
			}
			if !closed {
				out = append(out, combine(e1, e2))
			}
		}
	}
	return canonical(out)
}

// Any enumerates ANY(m, …): every selection of one detection from each of
// m distinct constituent lists.
func Any(m int, lists ...[]Detection) []Detection {
	var out []Detection
	n := len(lists)
	idx := make([]int, 0, m)
	var rec func(start int)
	rec = func(start int) {
		if len(idx) == m {
			out = append(out, product(lists, idx)...)
			return
		}
		for i := start; i <= n-(m-len(idx)); i++ {
			idx = append(idx, i)
			rec(i + 1)
			idx = idx[:len(idx)-1]
		}
	}
	rec(0)
	return canonical(out)
}

// product enumerates the cartesian product of the selected lists.
func product(lists [][]Detection, idx []int) []Detection {
	acc := []Detection{{}}
	for _, li := range idx {
		var next []Detection
		for _, partial := range acc {
			for _, d := range lists[li] {
				next = append(next, combine(partial, d))
			}
		}
		acc = next
	}
	return acc
}

// combine merges two detections: concatenated constituents, Max stamps.
func combine(a, b Detection) Detection {
	return Detection{
		Stamp:        core.Max(a.Stamp, b.Stamp),
		Constituents: append(append([]*event.Occurrence{}, a.Constituents...), b.Constituents...),
	}
}

// canonical orders detections deterministically (by constituent stamps)
// for comparison with the incremental engine.
func canonical(ds []Detection) []Detection {
	slices.SortStableFunc(ds, func(a, b Detection) int { return strings.Compare(Key(a), Key(b)) })
	return ds
}

// Key renders a detection's identity: the ordered list of constituent
// (type, site, local) triples.
func Key(d Detection) string {
	k := ""
	for _, c := range d.Constituents {
		k += c.Type + "@" + string(c.Site) + ":" + itoa(c.Stamp[0].Local) + ";"
	}
	return k
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
