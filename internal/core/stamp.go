// Package core implements the timestamp algebra of Yang & Chakravarthy,
// "Formal Semantics of Composite Events for Distributed Environments"
// (ICDE 1999): distributed primitive timestamps and their temporal
// relations (Section 4), distributed composite timestamps as sets of
// mutually concurrent "latest" primitive stamps (Section 5), the
// least-restricted strict partial order on those sets, the weaker
// less-than-or-equal relation, open and closed intervals, and the Max
// operator used to propagate timestamps through a distributed event graph.
//
// All global times are expressed in integer multiples of the global
// granularity g_g, so the paper's "T(e1).global < T(e2).global − 1g_g"
// becomes a plain integer comparison with −1.  Local times are integer
// local clock ticks.  The package is pure algebra: it never reads a clock
// (see internal/clock for the simulated time base that produces stamps).
package core

import (
	"fmt"
	"sort"
	"strings"
)

// SiteID identifies a site in the distributed system.
type SiteID string

// Stamp is a distributed primitive event timestamp (Definition 4.6): the
// triple (site, global, local) where site is the site of occurrence, local
// is the local clock tick l_k(e) and global is the derived global time
// g_k(e) = TRUNC_{g_g}(clock_k(l_k)) in units of g_g.
type Stamp struct {
	Site   SiteID
	Global int64
	Local  int64
}

// String renders the stamp as the paper's triple, e.g. "(k, 9154827, 91548276)".
func (t Stamp) String() string {
	return fmt.Sprintf("(%s, %d, %d)", string(t.Site), t.Global, t.Local)
}

// DeriveStamp builds a stamp whose global component is derived from the
// local tick with the given ratio g_g / g (local ticks per global tick),
// using integer-division TRUNC as fixed by the paper.  The worked example
// of Section 5.1 has ratio 10 (g = 1/100s, g_g = 1/10s).
func DeriveStamp(site SiteID, local int64, ratio int64) Stamp {
	if ratio <= 0 {
		panic(fmt.Sprintf("core: non-positive local-per-global ratio %d", ratio))
	}
	g := local / ratio
	if local < 0 && local%ratio != 0 {
		g--
	}
	return Stamp{Site: site, Global: g, Local: local}
}

// Less reports the happen-before relation "<" of Definition 4.7: stamps at
// the same site compare by local tick; stamps at distinct sites compare by
// global time with a one-granule guard band (t.global < u.global − 1g_g),
// which is the 2g_g-restricted temporal order lifted to timestamps.
//
// The integer tests run first: when the guard-band test and the local-tick
// test agree, both the same-site and the cross-site branch return that
// answer, so the site comparison — the only string operation, and by far
// the expensive one on this hottest of paths — is skipped.  For
// clock-derived stamps the two tests disagree only inside the ±1-granule
// band, so most calls never touch the site at all.
func (t Stamp) Less(u Stamp) bool {
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

// Simultaneous reports the "=" relation of Definition 4.7: same site and
// same local tick.  Unlike Concurrent, Simultaneous is a true equivalence
// relation (transitive, reflexive, symmetric).
func (t Stamp) Simultaneous(u Stamp) bool {
	return t.Site == u.Site && t.Local == u.Local
}

// Concurrent reports the "~" relation of Definition 4.7: neither stamp
// happens before the other.  Concurrency is reflexive and symmetric but not
// transitive, so it is not an equivalence relation (the paper's globals
// 1, 2, 3 serve as the counterexample).
func (t Stamp) Concurrent(u Stamp) bool {
	return !t.Less(u) && !u.Less(t)
}

// WeakLE reports the weakened less-than-or-equal relation "⪯" of
// Definition 4.8: t ⪯ u iff t < u or t ~ u.  Any two primitive stamps are
// comparable under ⪯ (Proposition 4.2(4)), but ⪯ is not transitive.
func (t Stamp) WeakLE(u Stamp) bool {
	return t.Less(u) || t.Concurrent(u)
}

// Relation classifies the temporal relationship between two primitive
// stamps.  By Proposition 4.2(3) exactly one of Before, After, Concurrent
// holds (Simultaneous is the same-site special case of Concurrent and is
// reported in preference to it).
type Relation int

const (
	// Before means the receiver happens before the argument (t < u).
	Before Relation = iota
	// After means the argument happens before the receiver (u < t).
	After
	// Simultaneous means same site, same local tick (t = u).
	Simultaneous
	// Concurrent means neither happens before the other and the stamps
	// are not simultaneous.
	Concurrent
)

func (r Relation) String() string {
	switch r {
	case Before:
		return "<"
	case After:
		return ">"
	case Simultaneous:
		return "="
	case Concurrent:
		return "~"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Relate classifies t against u.
func (t Stamp) Relate(u Stamp) Relation {
	switch {
	case t.Less(u):
		return Before
	case u.Less(t):
		return After
	case t.Simultaneous(u):
		return Simultaneous
	default:
		return Concurrent
	}
}

// CompareCanonical is a total order on stamps used only for canonical
// storage (sorting set components, map keys, deterministic printing).  It
// has no temporal meaning: the paper's point is precisely that distributed
// time is only partially ordered.
func CompareCanonical(a, b Stamp) int {
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

// SortCanonical sorts stamps in canonical (site, local, global) order.
func SortCanonical(ts []Stamp) {
	sort.Slice(ts, func(i, j int) bool { return CompareCanonical(ts[i], ts[j]) < 0 })
}

// FormatStamps renders a slice of stamps as the paper writes composite
// timestamps: "{(k, 9154827, 91548276), (m, 9154827, 91548277)}".
func FormatStamps(ts []Stamp) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range ts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}
