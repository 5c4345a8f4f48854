package detector

import (
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
)

// emitFunc receives an occurrence produced by a node.
type emitFunc func(*event.Occurrence)

// opNode is one operator in the event graph.  Constituent occurrences are
// delivered with onChild; idx identifies which constituent expression the
// occurrence belongs to (in the order of expr.Node.Children).  Nodes call
// their wired output for every composite occurrence they produce.
//
// The contract all nodes rely on: onChild is invoked in an arrival order
// that is a linear extension of the composite happen-before order of
// Definition 5.3 — if an occurrence a with T(a) < T(b) exists, a is
// delivered before b.  Occurrences delivered later are therefore never
// happen-before buffered ones.
//
// Buffering follows the pool ledger (event.Pool): every pointer a node
// stores past onChild's return — a buffer slot, a window, a timer
// closure — takes a reference with Retain, and every removal drops it
// with Release.  Emission goes through Detector.emit, which retains the
// constituents into the composite and drops the composite's creator
// reference after the output chain returns.  With no pool attached every
// ledger call is a no-op, so unpooled detection is bit-identical.
type opNode interface {
	onChild(idx int, o *event.Occurrence)
}

// timeDriven is implemented by nodes that schedule timers (P, P*, PLUS).
type timeDriven interface {
	opNode
	bindScheduler(s scheduler) error
}

// scheduler is the timer service operator nodes use; the Detector
// implements it over a TimeSource and a deterministic timer heap.
type scheduler interface {
	now() clock.Microticks
	stampAt(ref clock.Microticks) core.Stamp
	schedule(due clock.Microticks, fire func(due clock.Microticks))
}

// retain takes a buffer reference on o and returns it, so appends read
// naturally: buf = append(buf, retain(o)).
//
//sentinel:hotpath
func retain(o *event.Occurrence) *event.Occurrence {
	o.Retain()
	return o
}

// releaseAll drops the buffer references of every occurrence in buf, nils
// the slots (consumed occurrences must not stay reachable — or recycled
// ones dangling — through the buffer's capacity) and returns the empty
// slice for reuse.
func releaseAll(buf []*event.Occurrence) []*event.Occurrence {
	for i, o := range buf {
		buf[i] = nil
		o.Release()
	}
	return buf[:0]
}

// passNode wraps a bare constituent as a named composite occurrence, used
// when a definition's root is a single primitive or named event.
type passNode struct {
	det  *Detector
	name string
	out  emitFunc
}

//sentinel:hotpath
func (n *passNode) onChild(_ int, o *event.Occurrence) {
	n.det.emit(n.out, n.name, o)
}

// orNode implements OR: the composite occurs whenever either constituent
// occurs.  There is no initiator/terminator pairing, so the parameter
// context is irrelevant.
type orNode struct {
	det  *Detector
	name string
	out  emitFunc
}

//sentinel:hotpath
func (n *orNode) onChild(_ int, o *event.Occurrence) {
	n.det.emit(n.out, n.name, o)
}

// binaryNode implements AND (seq=false) and SEQ (seq=true).
//
// For SEQ the initiator is always the left constituent and the pairing
// requires T(init) < T(term) under the composite happen-before order
// (Section 5.3: (E1;E2)(ts) ⇔ ∃t1,t2: E1(t1) ∧ E2(t2) ∧ t1 < t2).
//
// For AND either constituent may initiate; an occurrence of one side
// terminates against buffered occurrences of the other side with no
// ordering requirement (Section 5.3: conjunction in any order).
type binaryNode struct {
	det  *Detector
	name string
	ctx  Context
	seq  bool
	out  emitFunc

	buf [2][]*event.Occurrence
	// eligible is scratch for the per-terminator initiator scan, and cs
	// for a Cumulative emission's constituent list (emit copies it), both
	// reused across onChild calls so steady-state detection does not
	// allocate.
	eligible []int
	cs       []*event.Occurrence
}

//sentinel:hotpath
func (n *binaryNode) onChild(idx int, o *event.Occurrence) {
	if n.seq {
		n.onSeq(idx, o)
	} else {
		n.onAnd(idx, o)
	}
}

func (n *binaryNode) onSeq(idx int, o *event.Occurrence) {
	if idx == 0 { // initiator
		if n.ctx == Recent {
			n.buf[0] = releaseAll(n.buf[0])
		}
		n.buf[0] = append(n.buf[0], retain(o))
		return
	}
	// Terminator: eligible initiators happen before it (Chronicle: the oldest).
	eligible := n.eligible[:0]
	for i, init := range n.buf[0] {
		if event.StampLess(init, o) {
			eligible = append(eligible, i)
			if n.ctx == Chronicle {
				break
			}
		}
	}
	n.eligible = eligible[:0]
	if len(eligible) == 0 {
		return
	}
	switch n.ctx {
	case Unrestricted, Recent:
		for _, i := range eligible {
			n.det.emit(n.out, n.name, n.buf[0][i], o)
		}
	case Chronicle:
		n.det.emit(n.out, n.name, n.buf[0][eligible[0]], o)
		n.buf[0] = removeIndices(n.buf[0], eligible[:1])
	case Continuous:
		for _, i := range eligible {
			n.det.emit(n.out, n.name, n.buf[0][i], o)
		}
		n.buf[0] = removeIndices(n.buf[0], eligible)
	case Cumulative:
		cs := n.cs[:0]
		for _, i := range eligible {
			cs = append(cs, n.buf[0][i])
		}
		n.cs = n.det.emitScratch(n.out, n.name, append(cs, o))
		n.buf[0] = removeIndices(n.buf[0], eligible)
	}
}

func (n *binaryNode) onAnd(idx int, o *event.Occurrence) {
	other := 1 - idx
	if len(n.buf[other]) == 0 {
		if n.ctx == Recent {
			n.buf[idx] = releaseAll(n.buf[idx])
		}
		n.buf[idx] = append(n.buf[idx], retain(o))
		return
	}
	// emitOne pairs the arriving occurrence with a single buffered
	// partner, left child first regardless of arrival.  It hands the pair
	// to emit as plain variadic arguments: the four single-partner
	// contexts used to wrap each partner in a transient one-element slice
	// per emission, which was pure garbage on the detect path.
	emitOne := func(b *event.Occurrence) {
		if idx == 1 {
			n.det.emit(n.out, n.name, b, o)
		} else {
			n.det.emit(n.out, n.name, o, b)
		}
	}
	switch n.ctx {
	case Unrestricted:
		for _, b := range n.buf[other] {
			emitOne(b)
		}
		n.buf[idx] = append(n.buf[idx], retain(o))
	case Recent:
		emitOne(n.buf[other][len(n.buf[other])-1])
		n.buf[idx] = append(releaseAll(n.buf[idx]), retain(o))
	case Chronicle:
		emitOne(n.buf[other][0])
		n.buf[other] = removeIndices(n.buf[other], zeroIndex)
	case Continuous:
		for _, b := range n.buf[other] {
			emitOne(b)
		}
		n.buf[other] = releaseAll(n.buf[other])
	case Cumulative:
		cs := n.cs[:0]
		if idx == 1 {
			cs = append(append(cs, n.buf[other]...), o)
		} else {
			cs = append(append(cs, o), n.buf[other]...)
		}
		n.cs = n.det.emitScratch(n.out, n.name, cs)
		n.buf[other] = releaseAll(n.buf[other])
	}
}

// anyNode implements ANY(m, E1 … En): the composite occurs when
// occurrences of m distinct constituent expressions are available, the
// current occurrence among them.
//
// Context policies: Recent keeps the most recent occurrence of each
// constituent and does not consume; Chronicle and Continuous use the
// oldest buffered occurrence of each selected constituent and consume the
// occurrences used (for ANY the two coincide in this implementation —
// there is a single terminator, so "close all open windows" degenerates to
// the FIFO pairing); Cumulative emits one composite containing every
// buffered occurrence of every non-empty constituent and consumes them
// all; Unrestricted emits one composite per selection of m−1 buffered
// occurrences of distinct other constituents and consumes nothing.
type anyNode struct {
	det  *Detector
	name string
	ctx  Context
	m    int
	out  emitFunc

	buf [][]*event.Occurrence
	// Scratch reused across onChild calls: eligible holds the child
	// indexes with buffered occurrences, chooseSel backs the subset
	// enumeration, combo assembles each emitted selection before it is
	// ordered, and cs holds the ordered constituent list.  None of them
	// escapes an emission: emit copies the list it is handed.
	eligible  []int
	chooseSel []int
	combo     []childOcc
	// ordered is a second childOcc scratch: emitOrdered sorts its input
	// in place, so combinations assembled in the shared combo backing are
	// copied here first to leave the recursion's accumulator untouched.
	ordered []childOcc
	cs      []*event.Occurrence
}

// childOcc pairs a constituent occurrence with the child index it arrived
// on, so composites can list constituents in child-index order
// deterministically regardless of arrival order.
type childOcc struct {
	c   int
	occ *event.Occurrence
}

//sentinel:hotpath
func (n *anyNode) onChild(idx int, o *event.Occurrence) {
	if n.ctx == Recent {
		n.buf[idx] = releaseAll(n.buf[idx])
	}
	n.buf[idx] = append(n.buf[idx], retain(o))

	eligible := n.eligible[:0] // children with occurrences available, o's child first
	eligible = append(eligible, idx)
	for c := range n.buf {
		if c != idx && len(n.buf[c]) > 0 {
			eligible = append(eligible, c)
		}
	}
	n.eligible = eligible[:0]
	if len(eligible) < n.m {
		return
	}
	switch n.ctx {
	case Unrestricted:
		others := eligible[1:]
		n.chooseSel = choose(n.chooseSel, others, n.m-1, func(sel []int) {
			n.emitCombo(childOcc{c: idx, occ: o}, sel)
		})
		// o stays buffered (already appended).
	case Recent:
		sel := n.combo[:0]
		for _, c := range eligible[:n.m] {
			sel = append(sel, childOcc{c: c, occ: n.buf[c][len(n.buf[c])-1]})
		}
		n.emitOrdered(sel)
		n.combo = sel[:0]
	case Chronicle, Continuous:
		sel := n.combo[:0]
		used := eligible[:n.m]
		for _, c := range used {
			sel = append(sel, childOcc{c: c, occ: n.buf[c][0]})
		}
		n.emitOrdered(sel)
		n.combo = sel[:0]
		for _, c := range used {
			n.buf[c] = removeIndices(n.buf[c], zeroIndex)
		}
	case Cumulative:
		sel := n.combo[:0]
		for _, c := range eligible {
			for _, b := range n.buf[c] {
				sel = append(sel, childOcc{c: c, occ: b})
			}
		}
		n.emitOrdered(sel)
		n.combo = sel[:0]
		// Consume after the emission holds its constituent references.
		for _, c := range eligible {
			n.buf[c] = releaseAll(n.buf[c])
		}
	}
}

// zeroIndex is the shared index slice for "remove the head" compactions.
var zeroIndex = []int{0}

// emitCombo assembles one combination — one buffered occurrence per
// selected other child, with o fixed — in the combo scratch and emits
// it.  The combination fan-out walks sel depth-first without allocating
// per emission.
func (n *anyNode) emitCombo(o childOcc, sel []int) {
	if cap(n.combo) < n.m {
		// Pre-size so recursive appends never outgrow the scratch (depth
		// is at most m), which would silently drop the reuse.
		n.combo = make([]childOcc, 0, n.m)
	}
	n.emitCombos(o, sel, 0, n.combo[:0])
}

// emitCombos emits one composite per combination of one buffered
// occurrence from each selected other child, with o fixed.  acc rides the
// shared combo scratch — each recursion level appends its choice and the
// slice header truncates on the way out; the completed combination is
// copied into the ordered scratch because emitOrdered sorts in place and
// must not permute the live accumulator under the recursion.
func (n *anyNode) emitCombos(o childOcc, sel []int, depth int, acc []childOcc) {
	if depth == len(sel) {
		n.ordered = append(n.ordered[:0], acc...)
		n.ordered = append(n.ordered, o)
		n.emitOrdered(n.ordered)
		return
	}
	for _, b := range n.buf[sel[depth]] {
		n.emitCombos(o, sel, depth+1, append(acc, childOcc{c: sel[depth], occ: b}))
	}
}

// emitOrdered emits with constituents sorted into child-index order (ties
// by buffer order) for deterministic parameter lists.  The sort is a
// stable insertion sort in place, so it orders exactly as a stable library
// sort would: a selection holds m entries, and a Cumulative one, which
// holds every buffered entry, is out of order only in the arriving
// child's block.
func (n *anyNode) emitOrdered(sel []childOcc) {
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j].c < sel[j-1].c; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	cs := n.cs[:0]
	for _, s := range sel {
		cs = append(cs, s.occ)
	}
	n.cs = n.det.emitScratch(n.out, n.name, cs)
}

// choose invokes fn with each size-k subset of items, preserving order.
// The selection slice handed to fn is a single scratch buffer reused
// across invocations — fn must not retain it.  scratch provides the
// backing array; the (possibly grown) buffer is returned for the caller
// to keep, so steady-state enumeration allocates nothing per combination.
func choose(scratch []int, items []int, k int, fn func([]int)) []int {
	if k == 0 {
		fn(nil)
		return scratch
	}
	if k > len(items) {
		return scratch
	}
	if cap(scratch) < k {
		scratch = make([]int, 0, k)
	}
	sel := scratch[:0]
	var rec func(start int)
	rec = func(start int) {
		if len(sel) == k {
			fn(sel)
			return
		}
		for i := start; i <= len(items)-(k-len(sel)); i++ {
			sel = append(sel, items[i])
			rec(i + 1)
			sel = sel[:len(sel)-1]
		}
	}
	rec(0)
	return sel[:0]
}

// notNode implements NOT(E2)[E1, E3]: the composite occurs when E3 occurs
// after an initiator E1 with no occurrence of E2 in the open interval
// (T(e1), T(e3)) of Definition 5.5.  Children are wired in AST order:
// 0 = E2 (the absent event), 1 = E1 (initiator), 2 = E3 (terminator).
//
// Because arrival order is a linear extension of happen-before, an E2
// delivered before an initiator can never satisfy T(e1) < T(e2), so E2
// occurrences are buffered only while some live initiator precedes them.
type notNode struct {
	det  *Detector
	name string
	ctx  Context
	out  emitFunc

	inits []*event.Occurrence
	e2s   []*event.Occurrence
	// first[i] is the index in e2s of the earliest-arrived buffered E2
	// that follows inits[i], or noFollower.  It is recorded once, when
	// that E2 arrives; every other follower of inits[i] sits after it.
	first []int32
	// stale is set when the buffer limit evicted initiators: E2s that only
	// they preceded stay buffered until the next consume prunes them.
	stale bool
	// Scratch: the initiators one terminator uses, the E2s one consume
	// drops, a Cumulative emission's constituent list.
	eligible []int
	gone     []int32
	cs       []*event.Occurrence
}

const noFollower = -1

//sentinel:hotpath
func (n *notNode) onChild(idx int, o *event.Occurrence) {
	switch idx {
	case 1: // initiator E1
		if n.ctx == Recent { // no initiator stays live, so no E2 follows one
			n.inits, n.first = releaseAll(n.inits), n.first[:0]
			n.e2s = releaseAll(n.e2s)
		}
		f := int32(noFollower)
		if len(o.Stamp) > 1 {
			// Only a composite can precede an E2 that arrived before it: the
			// E2 may follow one component and be concurrent with the newest.
			f = n.follower(o)
		}
		n.inits, n.first = append(n.inits, retain(o)), append(n.first, f)
	case 0: // E2 — potential spoiler
		// It is the first follower of every initiator that precedes it and has
		// none yet; the others are asked only until one is known to precede it.
		kept := false
		for i, init := range n.inits {
			if (n.first[i] == noFollower || !kept) && event.StampLess(init, o) {
				kept = true
				if n.first[i] == noFollower {
					n.first[i] = int32(len(n.e2s))
				}
			}
		}
		if kept {
			n.e2s = append(n.e2s, retain(o))
		}
		// Otherwise no live initiator precedes it and none arriving later
		// can (linear extension), so it can never spoil: drop.
	case 2: // terminator E3; spoiled is asked first, it need not load a spoiled initiator
		eligible := n.eligible[:0]
		for i, init := range n.inits {
			if !n.spoiled(i, o) && event.StampLess(init, o) {
				eligible = append(eligible, i)
				if n.ctx == Chronicle { // uses the oldest one only
					break
				}
			}
		}
		n.eligible = eligible[:0]
		if len(eligible) == 0 {
			return
		}
		switch n.ctx {
		case Unrestricted, Recent:
			for _, i := range eligible {
				n.det.emit(n.out, n.name, n.inits[i], o)
			}
		case Chronicle:
			n.det.emit(n.out, n.name, n.inits[eligible[0]], o)
			n.consume(eligible)
		case Continuous:
			for _, i := range eligible {
				n.det.emit(n.out, n.name, n.inits[i], o)
			}
			n.consume(eligible)
		case Cumulative:
			cs := n.cs[:0]
			for _, i := range eligible {
				cs = append(cs, n.inits[i])
			}
			n.cs = n.det.emitScratch(n.out, n.name, append(cs, o))
			n.consume(eligible)
		}
	}
}

// follower returns the index of init's earliest-arrived buffered follower.
func (n *notNode) follower(init *event.Occurrence) int32 {
	for j, e2 := range n.e2s {
		if event.StampLess(init, e2) {
			return int32(j)
		}
	}
	return noFollower
}

// spoiled reports whether a buffered E2 lies in the open interval
// (T(inits[i]), T(e3)).  The first follower arrived before e3, so it is
// before e3 — spoiled — or concurrent with it, and only then can a later
// follower be the one inside the interval.
func (n *notNode) spoiled(i int, e3 *event.Occurrence) bool {
	f := n.first[i]
	if f == noFollower {
		return false
	}
	if event.StampLess(n.e2s[f], e3) {
		return true
	}
	for _, e2 := range n.e2s[f+1:] {
		if event.StampLess(e2, e3) && event.StampLess(n.inits[i], e2) {
			return true
		}
	}
	return false
}

// consume removes (and releases) the initiators at the ascending indices
// idx, then the E2s no live initiator precedes any more.  Those sit at or
// after the earliest first follower of a removed initiator, and none is a
// live initiator's first follower: surviving indexes only move down.
func (n *notNode) consume(idx []int) {
	from, w, k := len(n.e2s), idx[0], 0
	for i := w; i < len(n.first); i++ {
		if k < len(idx) && idx[k] == i {
			k++
			if f := int(n.first[i]); f != noFollower && f < from {
				from = f
			}
			continue
		}
		n.first[w] = n.first[i]
		w++
	}
	n.first, n.inits = n.first[:w], removeIndices(n.inits, idx)
	if n.stale {
		from, n.stale = 0, false
	}
	gone := n.gone[:0]
	w = from
outer:
	for j := from; j < len(n.e2s); j++ {
		e2 := n.e2s[j]
		for _, init := range n.inits {
			if event.StampLess(init, e2) {
				n.e2s[w] = e2
				w++
				continue outer
			}
		}
		e2.Release()
		gone = append(gone, int32(j))
	}
	n.gone = gone[:0]
	if len(gone) == 0 {
		return
	}
	for i := w; i < len(n.e2s); i++ {
		n.e2s[i] = nil
	}
	n.e2s = n.e2s[:w]
	for i, f := range n.first {
		if f > gone[0] {
			k, _ := slices.BinarySearch(gone, f) // the dropped E2s before f
			n.first[i] = f - int32(k)
		}
	}
}

// apWindow is one open interval of an aperiodic operator.
type apWindow struct {
	init *event.Occurrence
	acc  []*event.Occurrence // accumulated E2s (A*)
}

// release drops the window's buffer references when it is discarded or
// after its closing emission, keeping the acc storage for the next window
// the slot holds.
func (w *apWindow) release() {
	w.init.Release()
	w.init = nil
	w.acc = releaseAll(w.acc)
}

// aperiodicNode implements A(E1, E2, E3) and, with cumulative=true,
// A*(E1, E2, E3) (Section 5.3).  Children in AST order: 0 = E1
// (initiator), 1 = E2 (the monitored event), 2 = E3 (terminator).
//
// A fires once per E2 occurrence falling after an open initiator; E3
// closes the windows it follows (closing is intrinsic to the operator, not
// a context policy, so it happens in every context).  A* accumulates E2
// occurrences per window and fires once when E3 closes the window,
// carrying the E2s strictly inside the open interval.
type aperiodicNode struct {
	det        *Detector
	name       string
	ctx        Context
	cumulative bool
	out        emitFunc

	// windows holds the open windows by value, oldest first.  The slots
	// past its length are released windows whose acc storage waits for
	// reuse; each acc backing array belongs to exactly one slot, which is
	// why windows move only by swapping.
	windows []apWindow
	// Scratch: closed indexes the windows one terminator closes; cs is an
	// emission's constituent list (emit copies it).
	closed []int
	cs     []*event.Occurrence
}

//sentinel:hotpath
func (n *aperiodicNode) onChild(idx int, o *event.Occurrence) {
	switch idx {
	case 0: // E1 opens a window
		if n.ctx == Recent {
			for i := range n.windows {
				n.windows[i].release()
			}
			n.windows = n.windows[:0]
		}
		if len(n.windows) == cap(n.windows) {
			n.windows = append(n.windows, apWindow{})
		} else {
			n.windows = n.windows[:len(n.windows)+1]
		}
		n.windows[len(n.windows)-1].init = retain(o)
	case 1: // E2 goes to the open windows it follows
		for i := range n.windows {
			w := &n.windows[i]
			if !event.StampLess(w.init, o) {
				continue
			}
			if n.cumulative {
				w.acc = append(w.acc, retain(o))
			} else {
				n.det.emit(n.out, n.name, w.init, o)
			}
			if n.ctx == Chronicle { // the oldest one only; Recent holds one
				break
			}
		}
	case 2: // E3 closes windows
		closed := n.closed[:0]
		for i := range n.windows {
			if event.StampLess(n.windows[i].init, o) {
				closed = append(closed, i)
			}
		}
		n.closed = closed[:0]
		if len(closed) == 0 {
			return
		}
		// A closed window of the non-cumulative operator emits nothing
		// here; its buffered references end with it.
		if n.cumulative {
			switch n.ctx {
			case Chronicle:
				n.emitWindows(closed[:1], o)
				// Later windows closed by the same E3 are discarded in
				// Chronicle: each terminator accounts for one initiator.
			case Cumulative:
				n.emitWindows(closed, o)
			default: // Unrestricted, Recent, Continuous: one composite per window
				for i := range closed {
					n.emitWindows(closed[i:i+1], o)
				}
			}
		}
		// Release the closed windows, then swap the live ones forward in
		// order: the released slots, acc storage and all, end up past the
		// new length.
		live, k := 0, 0
		for i := range n.windows {
			if k < len(closed) && closed[k] == i {
				k++
				n.windows[i].release()
				continue
			}
			n.windows[live], n.windows[i] = n.windows[i], n.windows[live]
			live++
		}
		n.windows = n.windows[:live]
	}
}

// emitWindows emits one A* composite for the windows at the indexes ws,
// closed by the terminator o: initiators first, then the union of
// accumulated E2s strictly inside the open interval, then the terminator.
// An E2 shared by several merged windows appears once, where its first
// window lists it.
func (n *aperiodicNode) emitWindows(ws []int, o *event.Occurrence) {
	cs := n.cs[:0]
	for _, i := range ws {
		cs = append(cs, n.windows[i].init)
	}
	for k, i := range ws {
		for _, e2 := range n.windows[i].acc {
			if event.StampLess(e2, o) && !n.listedBefore(ws[:k], e2) {
				cs = append(cs, e2)
			}
		}
	}
	n.cs = n.det.emitScratch(n.out, n.name, append(cs, o))
}

// listedBefore reports whether one of the windows at the indexes earlier
// holds e2, for an E2 of a window merged after them.  Only a Cumulative
// terminator merges windows, and there an E2 joins every open window whose
// initiator precedes it.  The windows are oldest first, so each earlier
// window was open when e2 arrived at the later one, and it holds e2 exactly
// when its initiator precedes e2.  That is at most one stamp comparison
// per earlier window, and one when the oldest window holds e2.
func (n *aperiodicNode) listedBefore(earlier []int, e2 *event.Occurrence) bool {
	for _, i := range earlier {
		if event.StampLess(n.windows[i].init, e2) {
			return true
		}
	}
	return false
}

// periodicNode implements P(E1, [t], E3) and, with cumulative=true,
// P*(E1, [t], E3): a temporal event that fires every period microticks
// from the initiator until the terminator.  Children in AST order:
// 0 = E1, 1 = E3.  Ticks are temporal occurrences stamped by the
// detector's TimeSource at their due instant.
type periodicNode struct {
	det        *Detector
	name       string
	ctx        Context
	cumulative bool
	period     clock.Microticks
	out        emitFunc
	sched      scheduler
	// tickType is the precomputed name+".tick" event type: ticks fire on
	// every period of every open window, so the concatenation is hoisted
	// to construction instead of rebuilt per tick.
	tickType string

	windows []*pWindow
	// cs is a P* emission's constituent list (emit copies it).
	cs []*event.Occurrence
}

type pWindow struct {
	init   *event.Occurrence
	acc    []*event.Occurrence
	ticks  int64
	closed bool
}

// close marks the window dead for its pending timer and drops its buffer
// references.
func (w *pWindow) close() {
	w.closed = true
	w.init.Release()
	w.init = nil
	w.acc = releaseAll(w.acc)
}

func (n *periodicNode) bindScheduler(s scheduler) error {
	if s == nil {
		return fmt.Errorf("detector: %s needs a TimeSource for periodic timers", n.name)
	}
	n.sched = s
	return nil
}

//sentinel:hotpath
func (n *periodicNode) onChild(idx int, o *event.Occurrence) {
	switch idx {
	case 0: // E1 opens a periodic window
		if n.ctx == Recent {
			for i, w := range n.windows {
				w.close()
				n.windows[i] = nil
			}
			n.windows = n.windows[:0]
		}
		w := &pWindow{init: retain(o)}
		n.windows = append(n.windows, w)
		n.scheduleTick(w, n.sched.now()+n.period)
	case 1: // E3 closes windows it follows
		live := n.windows[:0]
		for _, w := range n.windows {
			if event.StampLess(w.init, o) {
				if n.cumulative {
					cs := append(append(n.cs[:0], w.init), w.acc...)
					n.cs = n.det.emitScratch(n.out, n.name, append(cs, o))
				}
				w.close()
			} else {
				live = append(live, w)
			}
		}
		for i := len(live); i < len(n.windows); i++ {
			n.windows[i] = nil
		}
		n.windows = live
	}
}

func (n *periodicNode) scheduleTick(w *pWindow, due clock.Microticks) {
	n.sched.schedule(due, func(at clock.Microticks) {
		if w.closed {
			return
		}
		w.ticks++
		params := event.Params{"count": w.ticks}
		// Ticks are plain heap occurrences (not pooled): their lifetime is
		// the emitted composite's, and temporal firings are orders of
		// magnitude rarer than the event path the pool serves.
		tick := event.NewPrimitive(n.tickType, event.Temporal, n.sched.stampAt(at), params)
		if n.cumulative {
			w.acc = append(w.acc, tick)
		} else {
			n.det.emit(n.out, n.name, w.init, tick)
		}
		n.scheduleTick(w, at+n.period)
	})
}

// plusNode implements PLUS(E, t): the composite occurs t microticks after
// each occurrence of E.  The emitted occurrence composes the triggering
// occurrence with a temporal occurrence stamped at the due instant, so the
// composite timestamp reflects the fire time via the Max operator.
type plusNode struct {
	det   *Detector
	name  string
	delta clock.Microticks
	out   emitFunc
	sched scheduler
	// timerType is the precomputed name+".timer" event type, hoisted to
	// construction so each PLUS firing builds no string.
	timerType string
}

func (n *plusNode) bindScheduler(s scheduler) error {
	if s == nil {
		return fmt.Errorf("detector: %s needs a TimeSource for PLUS timers", n.name)
	}
	n.sched = s
	return nil
}

//sentinel:hotpath
func (n *plusNode) onChild(_ int, o *event.Occurrence) {
	// The timer closure stores o past onChild's return, so it holds a
	// buffer reference until it fires (a timer that never fires leaks the
	// reference — the ledger's safe direction).
	o.Retain()
	n.sched.schedule(n.sched.now()+n.delta, func(at clock.Microticks) {
		tick := event.NewPrimitive(n.timerType, event.Temporal, n.sched.stampAt(at), nil)
		n.det.emit(n.out, n.name, o, tick)
		o.Release()
	})
}

// removeIndices removes the (ascending) indices from s in a single
// compaction pass, preserving order, releasing each removed occurrence's
// buffer reference.  The prefix before the first removed index is left
// untouched, and the vacated tail is nil-ed so consumed occurrences don't
// stay reachable through the buffer's capacity.
func removeIndices(s []*event.Occurrence, idx []int) []*event.Occurrence {
	if len(idx) == 0 {
		return s
	}
	w := idx[0]
	s[w].Release()
	k := 1
	for i := w + 1; i < len(s); i++ {
		if k < len(idx) && idx[k] == i {
			k++
			s[i].Release()
			continue
		}
		s[w] = s[i]
		w++
	}
	for i := w; i < len(s); i++ {
		s[i] = nil
	}
	return s[:w]
}
