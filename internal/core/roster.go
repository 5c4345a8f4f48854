package core

import (
	"fmt"
	"sort"
)

// Site is a dense roster index for a SiteID: sites are interned once, at
// topology seal, into 0..n-1 in canonical (sorted SiteID) order.  All hot
// per-site state downstream — frontiers, reorder sources, link tables,
// trace tracks — is indexed by Site instead of being keyed by the string
// SiteID, so the per-event cost of identifying a site drops from a string
// hash or compare to an integer.
//
// The interning order is the load-bearing part: because index order equals
// canonical SiteID order, comparing two Site values with < is exactly the
// string comparison CompareCanonical would have performed, and iterating
// 0..n-1 visits sites in the same order every deterministic export path
// already uses.
type Site int32

// NoSite is the sentinel for "no such site" (unknown ID, unset field).
const NoSite Site = -1

// Roster is the sealed site membership of a run: an immutable bijection
// between SiteID strings and dense Site indexes.  Build it once with
// NewRoster when the topology is final; it is never mutated afterwards,
// so concurrent readers need no locking.
type Roster struct {
	ids []SiteID        // index → ID, sorted ascending
	idx map[SiteID]Site // ID → index
}

// NewRoster interns the given site IDs.  Input order is irrelevant: the
// roster sorts and dedupes, so equal memberships always produce equal
// rosters (and therefore equal wire frames and trace track orders).
func NewRoster(ids []SiteID) *Roster {
	sorted := make([]SiteID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	w := 0
	for i, id := range sorted {
		if i == 0 || id != sorted[w-1] {
			sorted[w] = id
			w++
		}
	}
	sorted = sorted[:w]
	idx := make(map[SiteID]Site, len(sorted))
	for i, id := range sorted {
		idx[id] = Site(i)
	}
	return &Roster{ids: sorted, idx: idx}
}

// Len returns the number of sites.
func (r *Roster) Len() int { return len(r.ids) }

// ID returns the SiteID at index s.  It panics on an out-of-range index —
// indexes only come from this roster, so a bad one is a programming error,
// not an input error.
func (r *Roster) ID(s Site) SiteID { return r.ids[s] }

// Site returns the dense index of id, or NoSite if id is not a member.
func (r *Roster) Site(id SiteID) Site {
	if s, ok := r.idx[id]; ok {
		return s
	}
	return NoSite
}

// MustSite is Site for callers that have already validated membership; it
// panics on an unknown ID.
func (r *Roster) MustSite(id SiteID) Site {
	s, ok := r.idx[id]
	if !ok {
		panic(fmt.Sprintf("core: site %q not in roster", id))
	}
	return s
}

// IDs returns the membership in canonical order.  The slice is the
// roster's own backing store — callers must not mutate it.
func (r *Roster) IDs() []SiteID { return r.ids }

// Canon interns a stamp: the dense-index form of t, or ok=false when
// t.Site is not a roster member.
func (r *Roster) Canon(t Stamp) (RStamp, bool) {
	s, ok := r.idx[t.Site]
	if !ok {
		return RStamp{Site: NoSite}, false
	}
	return RStamp{Site: s, Global: t.Global, Local: t.Local}, true
}

// Stamp is the inverse of Canon: the string form of an interned stamp.
func (r *Roster) Stamp(t RStamp) Stamp {
	return Stamp{Site: r.ids[t.Site], Global: t.Global, Local: t.Local}
}

// RStamp is a primitive timestamp with its site interned to a roster
// index: the same (site, global, local) triple as Stamp, identical
// temporal relations, no string in sight.  The string Stamp stays the
// semantics of record (reference.go and the differential property tests
// pin the relations); RStamp exists so the per-event hot paths — release
// keys, reorder heaps, frontier vectors — compare three integers instead
// of hashing or comparing a string.
type RStamp struct {
	Site   Site
	Global int64
	Local  int64
}

// Less is Stamp.Less on interned stamps (Definition 4.7 with the
// one-granule guard band).  The branch structure mirrors the string
// version exactly; only the same-site test changes representation, and
// roster interning is injective, so t.Site == u.Site iff the string IDs
// are equal.  TestRStampRelationsMatchStamp pins the equivalence on
// arbitrary inputs.
func (t RStamp) Less(u RStamp) bool {
	cross := t.Global < u.Global-1
	local := t.Local < u.Local
	if cross == local {
		return cross
	}
	if t.Site == u.Site {
		return local
	}
	return cross
}

// Simultaneous is Stamp.Simultaneous on interned stamps: same site, same
// local tick.
func (t RStamp) Simultaneous(u RStamp) bool {
	return t.Site == u.Site && t.Local == u.Local
}

// Concurrent is Stamp.Concurrent on interned stamps: neither happens
// before the other.
func (t RStamp) Concurrent(u RStamp) bool {
	return !t.Less(u) && !u.Less(t)
}

// WeakLE is Stamp.WeakLE ("⪯", Definition 4.8) on interned stamps.
func (t RStamp) WeakLE(u RStamp) bool {
	return t.Less(u) || t.Concurrent(u)
}

// CompareCanonicalR is CompareCanonical on interned stamps.  Roster
// interning preserves ID order, so the integer site comparison here
// orders exactly as the string comparison does — the property that lets
// roster-indexed state iterate in the same canonical order as the string
// paths it replaced.
func CompareCanonicalR(a, b RStamp) int {
	if a.Site != b.Site {
		if a.Site < b.Site {
			return -1
		}
		return 1
	}
	if a.Local != b.Local {
		if a.Local < b.Local {
			return -1
		}
		return 1
	}
	if a.Global != b.Global {
		if a.Global < b.Global {
			return -1
		}
		return 1
	}
	return 0
}
