package core

// RSetStamp is the roster-interned form of SetStamp: the same canonical
// (site, local, global)-ordered component set, with every site identity a
// dense Site index instead of a string SiteID.  It exists for the hot
// per-event paths — release keys, composite Max folds, detector buffer
// scans — where component comparisons must be integer-only; the string
// SetStamp stays the semantics of record (reference.go), and the
// differential tests in rsetstamp_test.go pin every relation here against
// it on arbitrary valid inputs.
//
// Unlike SetStamp, whose relation methods route degenerate shapes to the
// quadratic reference implementations, RSetStamp requires the canonical
// valid shape (sorted, at most one component per site).  That is not a
// loss of generality: interned sets are only ever produced by this
// package's own algebra (Roster.AppendCanon, RMaxInto), which preserves
// the shape, while arbitrary user-constructed sets stay in string form.
// Because roster interning preserves SiteID order (see Site), the integer
// merges below order exactly as their string counterparts.
type RSetStamp []RStamp

// siteStrictR is siteStrict on interned components: sorted with strictly
// increasing sites, the shape every valid interned set has.
func siteStrictR(s RSetStamp) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1].Site >= s[i].Site {
			return false
		}
	}
	return true
}

// rcrossAgg is crossAgg with interned achiever sites: min/max global with
// the site achieving each, plus the extremes over the remaining sites, so
// "min/max global among components at sites other than X" answers in O(1).
type rcrossAgg struct {
	min1, max1       int64
	minSite, maxSite Site
	min2, max2       int64
	hasMin2, hasMax2 bool
}

// raggregateStrict is aggregateStrict on interned components: one pass,
// sites all distinct.  s must be non-empty.
func raggregateStrict(s RSetStamp) rcrossAgg {
	a := rcrossAgg{
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

// rcrossBelow is crossBelow with an integer site test: some component at a
// site other than site has global < bound.
func rcrossBelow(a *rcrossAgg, site Site, bound int64) bool {
	if a.min1 >= bound {
		return false
	}
	if a.hasMin2 && a.min2 < bound {
		return true
	}
	return a.minSite != site
}

// rcrossAbove is the mirror: some cross-site global > bound.
func rcrossAbove(a *rcrossAgg, site Site, bound int64) bool {
	if a.max1 <= bound {
		return false
	}
	if a.hasMax2 && a.max2 > bound {
		return true
	}
	return a.maxSite != site
}

// rcrossDominated reports whether t is dominated by some cross-site
// component summarized by agg.
func rcrossDominated(t RStamp, agg *rcrossAgg) bool {
	return rcrossAbove(agg, t.Site, t.Global+1)
}

// Less is SetStamp.Less (Definition 5.3(2)) on interned sets: ∀ t2 ∈ u
// ∃ t1 ∈ s with t1 < t2, evaluated as one integer-only merge pass.  Both
// inputs must have the canonical valid shape (see the type comment).
func (s RSetStamp) Less(u RSetStamp) bool {
	if len(s) == 0 || len(u) == 0 {
		return false
	}
	if len(s) == 1 && len(u) == 1 {
		return s[0].Less(u[0])
	}
	agg := raggregateStrict(s)
	i := 0
	for _, t2 := range u {
		for i < len(s) && s[i].Site < t2.Site {
			i++
		}
		if i < len(s) && s[i].Site == t2.Site && s[i].Local < t2.Local {
			continue // same-site witness (Definition 4.7, local order)
		}
		if rcrossBelow(&agg, t2.Site, t2.Global-1) {
			continue // cross-site witness (one-granule guard band)
		}
		return false
	}
	return true
}

// ConcurrentWith is SetStamp.ConcurrentWith (Definition 5.3(1)) on
// interned sets: all cross-set pairs concurrent, in one merge pass.
func (s RSetStamp) ConcurrentWith(u RSetStamp) bool {
	if len(s) == 0 || len(u) == 0 {
		return false
	}
	if len(s) == 1 && len(u) == 1 {
		return s[0].Concurrent(u[0])
	}
	agg := raggregateStrict(s)
	i := 0
	for _, t2 := range u {
		for i < len(s) && s[i].Site < t2.Site {
			i++
		}
		if i < len(s) && s[i].Site == t2.Site && s[i].Local != t2.Local {
			return false // same-site pair that is not simultaneous
		}
		if rcrossBelow(&agg, t2.Site, t2.Global-1) {
			return false // some t1 happens before t2
		}
		if rcrossAbove(&agg, t2.Site, t2.Global+1) {
			return false // t2 happens before some t1
		}
	}
	return true
}

// WeakLE is SetStamp.WeakLE ("⪯", Definition 5.4) on interned sets: no
// pair with t2 < t1, in one merge pass over s against the aggregate of u.
func (s RSetStamp) WeakLE(u RSetStamp) bool {
	if len(s) == 0 || len(u) == 0 {
		return false
	}
	if len(s) == 1 && len(u) == 1 {
		return s[0].WeakLE(u[0])
	}
	agg := raggregateStrict(u)
	j := 0
	for _, t1 := range s {
		for j < len(u) && u[j].Site < t1.Site {
			j++
		}
		if j < len(u) && u[j].Site == t1.Site && u[j].Local < t1.Local {
			return false // same-site t2 before t1
		}
		if rcrossBelow(&agg, t1.Site, t1.Global-1) {
			return false // cross-site t2 before t1
		}
	}
	return true
}

// MaxGlobalComponent is SetStamp.MaxGlobalComponent on interned sets: the
// component carrying the largest global time, earliest in canonical order
// among ties (index order equals canonical SiteID order, so the winner is
// the same component the string form picks).  It panics on an empty set.
func (s RSetStamp) MaxGlobalComponent() RStamp {
	if len(s) == 0 {
		panic("core: MaxGlobalComponent of empty interned composite timestamp")
	}
	best := s[0]
	for _, t := range s[1:] {
		if t.Global > best.Global {
			best = t
		}
	}
	return best
}

// RMaxInto is MaxInto on interned sets: max(a ∪ b) — Theorem 5.4's reading
// of the Definition 5.9 Max operator — computed into dst's backing array
// (truncating dst first) in one integer-only merge pass.  Both inputs must
// have the canonical valid shape; dst must not overlap a or b.  Because
// interning preserves site order, the result materializes (via
// Roster.AppendStamps) to exactly the set MaxInto produces on the string
// forms.
func RMaxInto(dst, a, b RSetStamp) RSetStamp {
	dst = dst[:0]
	switch {
	case len(a) == 0:
		return append(dst, b...)
	case len(b) == 0:
		return append(dst, a...)
	}
	aggA, aggB := raggregateStrict(a), raggregateStrict(b)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ta, tb := a[i], b[j]
		switch {
		case ta.Site < tb.Site:
			if !rcrossDominated(ta, &aggB) {
				dst = append(dst, ta)
			}
			i++
		case ta.Site > tb.Site:
			if !rcrossDominated(tb, &aggA) {
				dst = append(dst, tb)
			}
			j++
		default: // one component each at the same site
			i, j = i+1, j+1
			aliveA := ta.Local >= tb.Local && !rcrossDominated(ta, &aggB)
			aliveB := tb.Local >= ta.Local && !rcrossDominated(tb, &aggA)
			switch {
			case aliveA && aliveB:
				// Simultaneous (equal locals): both survive; emit in
				// canonical order, collapsing exact duplicates.
				if c := CompareCanonicalR(ta, tb); c == 0 {
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
		if !rcrossDominated(a[i], &aggB) {
			dst = append(dst, a[i])
		}
	}
	for ; j < len(b); j++ {
		if !rcrossDominated(b[j], &aggA) {
			dst = append(dst, b[j])
		}
	}
	return dst
}

// AppendCanon interns every component of s into dst and returns the
// extended slice, with ok=false (and dst unchanged in content) if any
// component's site is not a roster member.  The input must be a valid
// canonical SetStamp; interning preserves order, so the output has the
// canonical interned shape with no re-sort.
func (r *Roster) AppendCanon(dst RSetStamp, s SetStamp) (RSetStamp, bool) {
	base := len(dst)
	for _, t := range s {
		idx, ok := r.idx[t.Site]
		if !ok {
			return dst[:base], false
		}
		dst = append(dst, RStamp{Site: idx, Global: t.Global, Local: t.Local})
	}
	return dst, true
}

// AppendStamps materializes an interned set back to string components,
// appending to dst.  Index order equals canonical SiteID order, so the
// output is in canonical order whenever the input is.
func (r *Roster) AppendStamps(dst SetStamp, s RSetStamp) SetStamp {
	for _, t := range s {
		dst = append(dst, Stamp{Site: r.ids[t.Site], Global: t.Global, Local: t.Local})
	}
	return dst
}
