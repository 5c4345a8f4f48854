package core

import (
	"errors"
	"fmt"
)

// SetStamp is the timestamp of a distributed composite event
// (Definition 5.2): a set of (site, global, local) triples, each a maximum
// of the set of constituent primitive timestamps collected when the
// composite event occurred.  Theorem 5.1 guarantees — and Valid checks —
// that the components of a well-formed SetStamp are mutually concurrent:
// they are the multiple "latest" stamps that replace the single t_occ of a
// centralized system.
//
// Components are kept in canonical (site, local, global) order with no
// duplicates so that Equal and String are deterministic; the order carries
// no temporal meaning.
type SetStamp []Stamp

// NewSetStamp builds the composite timestamp of the given primitive stamps:
// max(ST) per Definition 5.1, deduplicated and canonically ordered.  It
// panics on an empty input, because a composite event cannot occur without
// at least one constituent occurrence.
func NewSetStamp(stamps ...Stamp) SetStamp {
	if len(stamps) == 0 {
		panic("core: NewSetStamp of no stamps")
	}
	return MaxSet(stamps)
}

// Singleton wraps one primitive stamp as a composite timestamp; primitive
// events participate in the composite algebra as singleton sets.
func Singleton(t Stamp) SetStamp { return SetStamp{t} }

// MaxSet implements Definition 5.1: given a set of timestamps ST, the
// maxima are the stamps not happening before any other stamp in ST, and
// max(ST) is the set of all of them.  The result is deduplicated and
// canonically ordered.  By Theorem 5.1 its elements are mutually
// concurrent.  MaxSet of an empty slice returns nil.
//
// The input is first brought into canonical order (O(n log n)); a single
// pass then keeps exactly the non-dominated stamps: within one site's run
// only the maximal local tick survives (Definition 4.7 orders same-site
// stamps by local alone), and across sites a stamp survives iff no other
// site's global exceeds its own by more than one granule — an O(1) query
// against the crossAgg two-best summary.  The quadratic transcription of
// the definition is retained as maxSetRef and the differential tests
// assert agreement on arbitrary inputs.
func MaxSet(stamps []Stamp) SetStamp {
	if len(stamps) == 0 {
		return nil
	}
	if len(stamps) == 1 {
		return SetStamp{stamps[0]}
	}
	sorted := make(SetStamp, len(stamps))
	copy(sorted, stamps)
	SortCanonical(sorted)
	agg := aggregate(sorted)
	w := 0
	for i := 0; i < len(sorted); {
		e := i + 1
		for e < len(sorted) && sorted[e].Site == sorted[i].Site {
			e++
		}
		// Within the run [i, e) locals are ascending, so the run's last
		// element carries the maximal local tick; every element with a
		// smaller local is dominated by it (same-site happen-before).
		runMaxLocal := sorted[e-1].Local
		for k := i; k < e; k++ {
			t := sorted[k]
			if t.Local < runMaxLocal {
				continue // dominated within its own site
			}
			if crossDominated(t, &agg) {
				continue // dominated by a cross-site stamp
			}
			if w > 0 && CompareCanonical(sorted[w-1], t) == 0 {
				continue // exact duplicate
			}
			sorted[w] = t
			w++
		}
		i = e
	}
	return sorted[:w]
}

// dedupCanonical removes adjacent duplicates from a canonically sorted set.
func dedupCanonical(ts SetStamp) SetStamp {
	w := 0
	for i, t := range ts {
		if i == 0 || CompareCanonical(t, ts[w-1]) != 0 {
			ts[w] = t
			w++
		}
	}
	return ts[:w]
}

// ErrEmptySetStamp reports a composite timestamp with no components.
var ErrEmptySetStamp = errors.New("core: empty composite timestamp")

// Valid checks the Definition 5.2 invariants: the set is non-empty, free of
// duplicates, canonically ordered, and its components are mutually
// concurrent (the property Theorem 5.1 proves for max-sets).
func (s SetStamp) Valid() error {
	if len(s) == 0 {
		return ErrEmptySetStamp
	}
	for i := 1; i < len(s); i++ {
		if c := CompareCanonical(s[i-1], s[i]); c > 0 {
			return fmt.Errorf("core: composite timestamp not canonically ordered at %d: %s > %s", i, s[i-1], s[i])
		} else if c == 0 {
			return fmt.Errorf("core: duplicate component %s", s[i])
		}
	}
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if !s[i].Concurrent(s[j]) {
				return fmt.Errorf("core: components %s and %s are not concurrent", s[i], s[j])
			}
		}
	}
	return nil
}

// Clone returns an independent copy.
func (s SetStamp) Clone() SetStamp {
	if s == nil {
		return nil
	}
	out := make(SetStamp, len(s))
	copy(out, s)
	return out
}

// Equal reports set equality (both sets are canonically ordered).
func (s SetStamp) Equal(u SetStamp) bool {
	if len(s) != len(u) {
		return false
	}
	for i := range s {
		if CompareCanonical(s[i], u[i]) != 0 {
			return false
		}
	}
	return true
}

// String renders the set as the paper does, e.g.
// "{(k, 9154827, 91548276), (m, 9154827, 91548277)}".
func (s SetStamp) String() string { return FormatStamps(s) }

// Sites returns the distinct sites contributing components, in canonical
// order.  Because components are mutually concurrent and same-site
// concurrency collapses to simultaneity (Proposition 4.2(5)), a valid
// SetStamp has at most one component per site; hence len(Sites) == len(s).
func (s SetStamp) Sites() []SiteID {
	return s.AppendSites(make([]SiteID, 0, len(s)))
}

// AppendSites is Sites with caller-provided storage: it appends the
// component sites to dst and returns the extended slice, allocating only
// when dst's capacity runs out.  Diagnostic accessors on release/detect
// paths use this form so a reused scratch buffer makes the per-event cost
// zero allocations.
func (s SetStamp) AppendSites(dst []SiteID) []SiteID {
	for _, t := range s {
		dst = append(dst, t.Site)
	}
	return dst
}

// MaxGlobal returns the largest global component, a convenient scalar
// summary (e.g. for watermarking); it is not a substitute for the partial
// order.
func (s SetStamp) MaxGlobal() int64 {
	if len(s) == 0 {
		panic("core: MaxGlobal of empty composite timestamp")
	}
	m := s[0].Global
	for _, t := range s[1:] {
		if t.Global > m {
			m = t.Global
		}
	}
	return m
}

// MaxGlobalComponent returns the component carrying the largest global
// time — the stamp the watermark release key of internal/ddetect is built
// from.  Among components with equal global time the earliest in
// canonical order wins, so the result is deterministic.  Like MaxGlobal
// it is a scalar convenience, not a substitute for the partial order; it
// panics on an empty set.
func (s SetStamp) MaxGlobalComponent() Stamp {
	if len(s) == 0 {
		panic("core: MaxGlobalComponent of empty composite timestamp")
	}
	best := s[0]
	for _, t := range s[1:] {
		if t.Global > best.Global {
			best = t
		}
	}
	return best
}

// MinGlobal returns the smallest global component.
func (s SetStamp) MinGlobal() int64 {
	if len(s) == 0 {
		panic("core: MinGlobal of empty composite timestamp")
	}
	m := s[0].Global
	for _, t := range s[1:] {
		if t.Global < m {
			m = t.Global
		}
	}
	return m
}

// Less is the paper's chosen strict partial order "<" on composite
// timestamps (Definition 5.3(2)):
//
//	T(e1) < T(e2)  ⇔  ∀ t2 ∈ T(e2) ∃ t1 ∈ T(e1): t1 < t2
//
// Section 5.1 derives this as one of only two least-restricted orderings
// that are transitive and irreflexive (Theorem 5.2); the ∃∃ variant is not
// transitive and the ∀∀ and min-based variants are strictly more
// restricted (see altorder.go).
//
// Evaluated as a single O(n+m) merge pass (see merge.go) when the inputs
// are large and both have the canonical at-most-one-component-per-site
// shape of a valid SetStamp; other inputs take the quadratic reference
// path — below mergeThreshold the scan's early exits and the integer-first
// Stamp.Less beat the merge's mandatory site-ordering walk, and on
// degenerate sets behaviour must be unchanged.
func (s SetStamp) Less(u SetStamp) bool {
	if len(s) == 0 || len(u) == 0 {
		return false
	}
	if len(s) == 1 && len(u) == 1 {
		return s[0].Less(u[0])
	}
	if (len(s) > mergeThreshold || len(u) > mergeThreshold) && siteStrict(s) && siteStrict(u) {
		return lessMerge(s, u)
	}
	return lessRef(s, u)
}

// mergeThreshold is the component count above which the relations switch
// from the early-exiting quadratic scans to the O(n+m) merge passes.  The
// scans win below it: a typical call either finds a witness in the first
// element or refutes on the first probe, paying a handful of integer
// comparisons, while the merge must always walk both site sequences and
// pay the siteStrict gate's string comparisons up front.  Above it the
// guaranteed-linear merge takes over before the n·m worst case can bite.
// Theorem 5.1 bounds a valid set by the site count, so sets this large
// only appear in wide deployments.  Max/MaxInto are not thresholded: their
// merge emits sorted output directly, which beats the reference's
// sort+dedup at every size (BenchmarkSetStampAlgebra).
const mergeThreshold = 16

// ConcurrentWith is "~" on composite timestamps (Definition 5.3(1)): every
// component of one set is concurrent with every component of the other.
// Like Less, it runs as one merge pass on canonically shaped inputs.
func (s SetStamp) ConcurrentWith(u SetStamp) bool {
	if len(s) == 0 || len(u) == 0 {
		return false
	}
	if len(s) == 1 && len(u) == 1 {
		return s[0].Concurrent(u[0])
	}
	if (len(s) > mergeThreshold || len(u) > mergeThreshold) && siteStrict(s) && siteStrict(u) {
		return concurrentMerge(s, u)
	}
	return concurrentRef(s, u)
}

// IncomparableWith is "≬" (Definition 5.3(3)): none of <, > or ~ holds.
// Unlike primitive stamps — where Proposition 4.2(3) gives trichotomy —
// composite timestamps can be genuinely incomparable; the paper's Section
// 5.1 example has T(e1) ≬ T(e2) ≬ T(e3).
func (s SetStamp) IncomparableWith(u SetStamp) bool {
	return !s.Less(u) && !u.Less(s) && !s.ConcurrentWith(u)
}

// WeakLE is the weaker-less-than-or-equal relation "⪯" on composite
// timestamps (Definition 5.4): every component pair satisfies the primitive
// ⪯.  Theorem 5.3 proves the characterization
//
//	T(e1) ⪯ T(e2)  ⇔  T(e1) ~ T(e2) or T(e1) < T(e2)
//
// for valid (mutually concurrent) composite timestamps, which makes the
// definition consistent with the primitive ⪯ on singletons.
// Like Less, it runs as one merge pass on canonically shaped inputs.
func (s SetStamp) WeakLE(u SetStamp) bool {
	if len(s) == 0 || len(u) == 0 {
		return false
	}
	if len(s) == 1 && len(u) == 1 {
		return s[0].WeakLE(u[0])
	}
	if (len(s) > mergeThreshold || len(u) > mergeThreshold) && siteStrict(s) && siteStrict(u) {
		return weakLEMerge(s, u)
	}
	return weakLERef(s, u)
}

// SetRelation classifies the temporal relationship between two composite
// timestamps.
type SetRelation int

const (
	// SetBefore: s < u under Definition 5.3(2).
	SetBefore SetRelation = iota
	// SetAfter: u < s.
	SetAfter
	// SetConcurrent: s ~ u under Definition 5.3(1).
	SetConcurrent
	// SetIncomparable: none of the above (Definition 5.3(3)).
	SetIncomparable
)

func (r SetRelation) String() string {
	switch r {
	case SetBefore:
		return "<"
	case SetAfter:
		return ">"
	case SetConcurrent:
		return "~"
	case SetIncomparable:
		return "≬"
	default:
		return fmt.Sprintf("SetRelation(%d)", int(r))
	}
}

// Relate classifies s against u.  For valid composite timestamps at most
// one of <, >, ~ holds (a consequence of Theorem 5.2 and the definitions);
// < and > are checked first so that invalid inputs degrade predictably.
func (s SetStamp) Relate(u SetStamp) SetRelation {
	switch {
	case s.Less(u):
		return SetBefore
	case u.Less(s):
		return SetAfter
	case s.ConcurrentWith(u):
		return SetConcurrent
	default:
		return SetIncomparable
	}
}

// JoinConcurrent implements Definition 5.7: the join of two concurrent
// composite timestamps is their set union with duplicates eliminated.  It
// panics if the inputs are not concurrent — callers must dispatch through
// Max, which selects the applicable joining procedure.
func JoinConcurrent(a, b SetStamp) SetStamp {
	if !a.ConcurrentWith(b) {
		panic(fmt.Sprintf("core: JoinConcurrent of non-concurrent timestamps %s and %s", a, b))
	}
	return unionDominant(a, b)
}

// JoinIncomparable implements Definition 5.8: the join of two incomparable
// composite timestamps keeps, from each set, the stamps not happening
// before any stamp of the other set — the "latest" information of both.
//
// Note: the published text reads "{ts ∈ T(e1) such that ∃ts2 ∈ T(e2),
// ts < ts2} ∪ …", but keeping *dominated* stamps contradicts both the
// stated intent ("keep the latest information") and Theorem 5.4
// (Max(T1,T2) = max(T1 ∪ T2)); the negation was evidently dropped in
// typesetting.  We implement ¬∃, which is exactly what Theorem 5.4 forces,
// and the property test TestMaxOperatorEqualsMaxOfUnion pins it down.
func JoinIncomparable(a, b SetStamp) SetStamp {
	if !a.IncomparableWith(b) {
		panic(fmt.Sprintf("core: JoinIncomparable of comparable timestamps %s and %s", a, b))
	}
	return unionDominant(a, b)
}

// unionDominant returns max(a ∪ b) as a fresh slice: one merge pass on
// canonically shaped inputs (the result comes out sorted and deduplicated
// with no post-pass), the pairwise reference scan otherwise.
func unionDominant(a, b SetStamp) SetStamp {
	if siteStrict(a) && siteStrict(b) {
		return unionDominantMerge(make(SetStamp, 0, len(a)+len(b)), a, b)
	}
	return unionDominantRef(a, b)
}

// Max is the operator of Definition 5.9 that propagates composite
// timestamps up the event graph, implemented as Theorem 5.4 characterizes
// it: Max(a, b) = max(a ∪ b), the set of stamps of either input not
// happening before any stamp of the other.
//
// Reproduction note: Definition 5.9 as printed returns the *whole* later
// set when the inputs are comparable, but that is not always max(a ∪ b):
// with a = {(s1,5,50),(s2,6,69)} and b = {(s3,7,75)} we have a < b (the
// ∀∃ order only needs one witness per element of b), yet (s2,6,69) is
// concurrent with (s3,7,75) and so survives in max(a ∪ b).  The printed
// definition and Theorem 5.4 therefore disagree on such inputs.  We follow
// the theorem — it is the form actually used to prove the result is a
// valid composite timestamp, it keeps all "latest" information, and it
// makes Max associative (so MaxAll is fold-order independent).  The
// literal printed definition is preserved as MaxLiteral59 and the
// discrepancy is pinned by a regression test.
func Max(a, b SetStamp) SetStamp {
	switch {
	case len(a) == 0:
		return b.Clone()
	case len(b) == 0:
		return a.Clone()
	default:
		return unionDominant(a, b)
	}
}

// MaxShared is Max without the unconditional Clone on the empty-input
// fast paths: when one input is empty the other is returned as-is,
// aliased rather than copied.  It is the right call on hot paths that
// treat SetStamps as immutable after construction (the convention
// everywhere in this codebase — the algebra only ever returns fresh
// sets); use Max when the caller needs an independently mutable result.
func MaxShared(a, b SetStamp) SetStamp {
	switch {
	case len(a) == 0:
		return b
	case len(b) == 0:
		return a
	default:
		return unionDominant(a, b)
	}
}

// MaxInto computes Max(a, b) into dst's backing array (truncating dst
// first) and returns the resulting slice, growing it only when capacity
// runs out — the scratch-reuse form of the Definition 5.9 operator for
// callers that fold many sets.  dst must not overlap a or b.
func MaxInto(dst, a, b SetStamp) SetStamp {
	dst = dst[:0]
	switch {
	case len(a) == 0:
		return append(dst, b...)
	case len(b) == 0:
		return append(dst, a...)
	}
	if siteStrict(a) && siteStrict(b) {
		return unionDominantMerge(dst, a, b)
	}
	return append(dst, unionDominantRef(a, b)...)
}

// MaxLiteral59 implements Definition 5.9 exactly as printed: the later set
// when the inputs are comparable under the composite <, otherwise the
// join.  It exists to document where the printed definition diverges from
// Theorem 5.4; production code uses Max.
func MaxLiteral59(a, b SetStamp) SetStamp {
	switch {
	case len(a) == 0:
		return b.Clone()
	case len(b) == 0:
		return a.Clone()
	case b.Less(a):
		return a.Clone()
	case a.Less(b):
		return b.Clone()
	default:
		return unionDominant(a, b)
	}
}

// MaxAll folds Max over any number of composite timestamps.  By Theorem
// 5.4 and associativity of max-of-union, the result is max of the union of
// all components regardless of fold order.  The fold ping-pongs between
// two right-sized scratch buffers via MaxInto, so the whole chain costs at
// most two allocations however many sets are folded; the result never
// aliases an input.
func MaxAll(sets ...SetStamp) SetStamp {
	switch len(sets) {
	case 0:
		return nil
	case 1:
		return sets[0].Clone()
	}
	total := 0
	for _, s := range sets {
		total += len(s) // the union bounds every intermediate result
	}
	var bufs [2]SetStamp
	acc := sets[0]
	k := 0
	for _, s := range sets[1:] {
		if bufs[k] == nil {
			bufs[k] = make(SetStamp, 0, total)
		}
		acc = MaxInto(bufs[k], acc, s)
		k = 1 - k
	}
	return acc
}
