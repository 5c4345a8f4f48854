package core

// Single-pass implementations of the composite-timestamp algebra.
//
// A valid SetStamp is canonically ordered and — because its components are
// mutually concurrent and same-site concurrency collapses to simultaneity
// (Proposition 4.2(5), Theorem 5.1) — carries at most one component per
// site.  That shape turns every relation of Definition 5.3/5.4 and the Max
// operator of Definition 5.9 into a site-merge problem:
//
//   - A same-site pair compares by local tick alone (Definition 4.7), and
//     the unique per-site component is found by walking the two sorted
//     sets in lockstep.
//   - A cross-site pair compares only through the one-granule guard band
//     on globals, so "is any cross-site component of S before/after t?"
//     reduces to the minimum/maximum global of S over sites other than
//     t.Site — answerable in O(1) from a two-best aggregate (min/max plus
//     the min/max over the remaining sites) computed in one pass.
//
// Every relation therefore costs O(n+m) and Max builds its output in one
// merge with no sort, versus the O(n·m) pairwise scans retained in
// reference.go.  Inputs that do not have the valid shape (checked by
// siteStrict) are routed to the reference implementations, so exported
// behaviour is identical on arbitrary inputs; the differential property
// tests in diff_test.go pin that down.

import "strings"

// siteStrict reports whether s is sorted with strictly increasing sites —
// the shape every valid SetStamp has (canonical order with at most one
// component per site).  It is the O(n) gate in front of the merge
// algorithms; a false return routes the caller to the quadratic reference
// path so invalid inputs degrade in behaviour-preserving fashion.
func siteStrict(s SetStamp) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1].Site >= s[i].Site {
			return false
		}
	}
	return true
}

// crossAgg answers "min/max global among components at sites other than
// X" in O(1) for any X.  It keeps the overall min/max global with its
// site, plus the min/max over components at the remaining sites: if X is
// not the achiever's site the overall extreme applies, otherwise the
// second-best (which by construction is achieved at a different site).
type crossAgg struct {
	min1, max1       int64
	minSite, maxSite SiteID
	min2, max2       int64
	hasMin2, hasMax2 bool
}

// aggregate builds the cross-site aggregate in one pass.  s must be
// non-empty.  It tolerates repeated sites (MaxSet feeds it arbitrary
// sorted multisets): the invariant maintained is that min2/max2 are the
// extremes over components whose site differs from minSite/maxSite.
func aggregate(s SetStamp) crossAgg {
	a := crossAgg{
		min1: s[0].Global, max1: s[0].Global,
		minSite: s[0].Site, maxSite: s[0].Site,
	}
	for _, t := range s[1:] {
		g := t.Global
		switch {
		case t.Site == a.minSite:
			if g < a.min1 {
				a.min1 = g
			}
		case g < a.min1:
			// The displaced min bounds everything seen so far and sits at
			// a different site than t, so it is the new second-best.
			a.min2, a.hasMin2 = a.min1, true
			a.min1, a.minSite = g, t.Site
		case !a.hasMin2 || g < a.min2:
			a.min2, a.hasMin2 = g, true
		}
		switch {
		case t.Site == a.maxSite:
			if g > a.max1 {
				a.max1 = g
			}
		case g > a.max1:
			a.max2, a.hasMax2 = a.max1, true
			a.max1, a.maxSite = g, t.Site
		case !a.hasMax2 || g > a.max2:
			a.max2, a.hasMax2 = g, true
		}
	}
	return a
}

// aggregateStrict is aggregate for siteStrict inputs, whose sites are all
// distinct: the same-site accumulation case of aggregate can never fire,
// so the two-best maintenance needs no site comparison at all — achiever
// sites are recorded for the boundary queries below but never compared
// here.  s must be non-empty.
func aggregateStrict(s SetStamp) crossAgg {
	a := crossAgg{
		min1: s[0].Global, max1: s[0].Global,
		minSite: s[0].Site, maxSite: s[0].Site,
	}
	for _, t := range s[1:] {
		g := t.Global
		if g < a.min1 {
			a.min2, a.hasMin2 = a.min1, true
			a.min1, a.minSite = g, t.Site
		} else if !a.hasMin2 || g < a.min2 {
			a.min2, a.hasMin2 = g, true
		}
		if g > a.max1 {
			a.max2, a.hasMax2 = a.max1, true
			a.max1, a.maxSite = g, t.Site
		} else if !a.hasMax2 || g > a.max2 {
			a.max2, a.hasMax2 = g, true
		}
	}
	return a
}

// crossBelow reports whether some component at a site other than site has
// global < bound.  Integer-first: the site string is consulted only when
// min1 alone straddles the bound.  If min2 < bound then two components do,
// and whichever of the two achievers the query site matches (it can match
// at most one: their sites differ whenever min2 exists via displacement,
// and if both extremes sit at one site then min2 was accumulated from a
// different site by construction), the other is a cross-site witness.
func crossBelow(a *crossAgg, site SiteID, bound int64) bool {
	if a.min1 >= bound {
		return false
	}
	if a.hasMin2 && a.min2 < bound {
		return true
	}
	return a.minSite != site
}

// crossAbove is the mirror of crossBelow: some cross-site global > bound.
func crossAbove(a *crossAgg, site SiteID, bound int64) bool {
	if a.max1 <= bound {
		return false
	}
	if a.hasMax2 && a.max2 > bound {
		return true
	}
	return a.maxSite != site
}

// lessMerge is Definition 5.3(2) — ∀ t2 ∈ u ∃ t1 ∈ s: t1 < t2 — in one
// merge pass.  Both inputs must be siteStrict and non-empty.  For each t2
// the witness, if any, is either s's component at t2's site with a smaller
// local tick, or any cross-site component with global < t2.Global − 1;
// the latter exists iff the cross-site minimum does.
func lessMerge(s, u SetStamp) bool {
	agg := aggregateStrict(s)
	i := 0
	for _, t2 := range u {
		for i < len(s) && s[i].Site < t2.Site {
			i++
		}
		if i < len(s) && s[i].Site == t2.Site && s[i].Local < t2.Local {
			continue // same-site witness (Definition 4.7, local order)
		}
		if crossBelow(&agg, t2.Site, t2.Global-1) {
			continue // cross-site witness (one-granule guard band)
		}
		return false
	}
	return true
}

// concurrentMerge is Definition 5.3(1) — all cross-set pairs concurrent —
// in one merge pass.  A same-site pair is concurrent iff simultaneous
// (equal locals); a cross-site pair iff the globals are within one
// granule, so it suffices that no cross-site extreme of s breaks the band
// around each t2.  Both inputs must be siteStrict and non-empty.
func concurrentMerge(s, u SetStamp) bool {
	agg := aggregateStrict(s)
	i := 0
	for _, t2 := range u {
		for i < len(s) && s[i].Site < t2.Site {
			i++
		}
		if i < len(s) && s[i].Site == t2.Site && s[i].Local != t2.Local {
			return false // same-site pair that is not simultaneous
		}
		if crossBelow(&agg, t2.Site, t2.Global-1) {
			return false // some t1 happens before t2
		}
		if crossAbove(&agg, t2.Site, t2.Global+1) {
			return false // t2 happens before some t1
		}
	}
	return true
}

// weakLEMerge is Definition 5.4 — ∀∀ t1 ⪯ t2, equivalently no pair with
// t2 < t1 (Proposition 4.2(4)) — in one merge pass over s against the
// aggregate of u.  Both inputs must be siteStrict and non-empty.
func weakLEMerge(s, u SetStamp) bool {
	agg := aggregateStrict(u)
	j := 0
	for _, t1 := range s {
		for j < len(u) && u[j].Site < t1.Site {
			j++
		}
		if j < len(u) && u[j].Site == t1.Site && u[j].Local < t1.Local {
			return false // same-site t2 before t1
		}
		if crossBelow(&agg, t1.Site, t1.Global-1) {
			return false // cross-site t2 before t1
		}
	}
	return true
}

// crossDominated reports whether t is dominated by some cross-site
// component summarized by agg: a global more than one granule above t's.
func crossDominated(t Stamp, agg *crossAgg) bool {
	return crossAbove(agg, t.Site, t.Global+1)
}

// unionDominantMerge appends max(a ∪ b) — Theorem 5.4's reading of the
// Definition 5.9 Max operator — to dst in one merge pass and returns the
// extended slice.  Both inputs must be siteStrict and non-empty; dst must
// not alias either input.  The merge emits survivors in canonical order
// directly (no sort, no dedup pass): a component is dropped iff the other
// set's component at the same site has a larger local tick, or the other
// set's cross-site maximum exceeds its global by more than one granule.
func unionDominantMerge(dst, a, b SetStamp) SetStamp {
	aggA, aggB := aggregateStrict(a), aggregateStrict(b)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ta, tb := a[i], b[j]
		// One runtime string compare per step instead of two: the merge
		// branches on the sign of a single site comparison.
		switch c := strings.Compare(string(ta.Site), string(tb.Site)); {
		case c < 0:
			if !crossDominated(ta, &aggB) {
				dst = append(dst, ta)
			}
			i++
		case c > 0:
			if !crossDominated(tb, &aggA) {
				dst = append(dst, tb)
			}
			j++
		default: // one component each at the same site
			i, j = i+1, j+1
			aliveA := ta.Local >= tb.Local && !crossDominated(ta, &aggB)
			aliveB := tb.Local >= ta.Local && !crossDominated(tb, &aggA)
			switch {
			case aliveA && aliveB:
				// Simultaneous (equal locals): both survive; emit in
				// canonical order, collapsing exact duplicates.
				if c := CompareCanonical(ta, tb); c == 0 {
					dst = append(dst, ta)
				} else if c < 0 {
					dst = append(dst, ta, tb)
				} else {
					dst = append(dst, tb, ta)
				}
			case aliveA:
				dst = append(dst, ta)
			case aliveB:
				dst = append(dst, tb)
			}
		}
	}
	for ; i < len(a); i++ {
		if !crossDominated(a[i], &aggB) {
			dst = append(dst, a[i])
		}
	}
	for ; j < len(b); j++ {
		if !crossDominated(b[j], &aggA) {
			dst = append(dst, b[j])
		}
	}
	return dst
}
