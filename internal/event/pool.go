// Occurrence pooling: the free-list discipline internal/ddetect already
// applies to transport frames (coalesce.go, internal/wire), extended to
// the occurrence lifecycle itself.  A steady-state detection path raises,
// forwards, buffers, folds and publishes millions of occurrences whose
// lifetimes end at publish (primitives consumed by a context, composites
// nobody subscribed to); without recycling, every one of them is garbage.
//
// Ownership rules (DESIGN.md §2h):
//
//   - An occurrence built by a Pool starts with one reference — the
//     creator's.  Every party that stores the pointer past the current
//     call (a transport envelope, a detector buffer, a composite's
//     constituent list, a publish queue) takes its own reference with
//     Retain and drops it with Release when it lets go.
//   - Release of the last reference recycles the occurrence into the
//     pool; recycling a composite releases its constituents (the cascade
//     that frees a detection tree bottom-up as consumers let go).
//   - The ledger is leak-biased: a path that cannot prove it holds the
//     last reference simply never calls Release and the object falls to
//     the garbage collector — exactly the pre-pool behaviour.  A missed
//     Release is a leak; a spurious one is corruption; only the former is
//     tolerated.
//   - Parameter maps are caller-owned and never pooled: recycling nils
//     the Params field (every reference-carrying field is cleared before
//     Put) but the map itself belongs to whoever raised the event.
//
// Threading (DESIGN.md §2h): a pool belongs to one goroutine at a time.
// Every call on it and on the occurrences it hands out — Retain and
// Release included — comes from the goroutine that owns it; for a
// ddetect.System's pool that is the goroutine driving the System.  That
// is what lets it count references and its own statistics with plain
// integers and keep a small fixed LIFO array of free occurrences in front
// of the sync.Pool, so the steady-state cycle executes no atomic
// instruction at all.
//
// Safety rails: a generation counter increments at every recycle so
// use-after-put is observable (pool_test.go), and an extra Release on a
// recycled occurrence is detected by the reference count going negative —
// counted as an averted double put, or a panic in Strict mode (the mode
// the race tests run under).
package event

import (
	"sync"

	"repro/internal/core"
)

// PoolStats is a snapshot of a pool's counters.
type PoolStats struct {
	// Gets counts occurrences handed out (primitive + composite).
	Gets uint64
	// Puts counts occurrences recycled into the pool.
	Puts uint64
	// Misses counts Gets served by a fresh allocation because the pool
	// was empty.  Unlike the other counters it is timing-dependent (the
	// runtime may drop pooled objects under GC pressure), so it is
	// reported but never part of a determinism comparison.
	Misses uint64
	// DoublePuts counts releases of an already-recycled occurrence that
	// were detected and averted (Strict pools panic instead).
	DoublePuts uint64
}

// localFree is the size of the pool's front array.  It is a
// trade against retained heap: what sits in the array is memory the
// program holds, where a sync.Pool's contents are gone after two
// collections.  32 covers two thirds of the 48 occurrences the
// local_pairs workload turns over per pair of Steps; an unbounded free
// list read retained_heap_mb +29 % on fanout16 (EXPERIMENTS.md, PR 15).
const localFree = 32

// Pool recycles Occurrence objects, their stamp component storage and
// their constituent lists.  It belongs to one goroutine at a time (see
// the package comment).
type Pool struct {
	p sync.Pool
	// roster, when non-nil, lets pooled constructors intern stamp
	// components (Occurrence.Interned); without it pooled occurrences
	// carry string stamps only.
	roster *core.Roster
	// Strict makes a detected double put panic instead of being counted
	// and averted — the setting for tests hunting lifecycle bugs.
	Strict bool

	gets, puts, misses, doublePuts uint64

	// free[:nfree] is the front array, most recently freed last.
	free  [localFree]*Occurrence
	nfree int
}

// NewPool returns a pool whose constructors intern stamp sites against
// roster (which may be nil for a string-only pool).  Every call on it and
// on the occurrences it hands out — Retain and Release included — must
// come from one goroutine at a time.
func NewPool(roster *core.Roster) *Pool {
	return &Pool{roster: roster}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{Gets: p.gets, Puts: p.puts, Misses: p.misses, DoublePuts: p.doublePuts}
}

// get pops a recycled occurrence — from the front array, then from the
// sync.Pool — or allocates a fresh one; either way the result carries the
// creator's reference.
func (p *Pool) get() *Occurrence {
	p.gets++
	var o *Occurrence
	if n := p.nfree - 1; n >= 0 {
		o = p.free[n]
		p.free[n] = nil
		p.nfree = n
	} else if o, _ = p.p.Get().(*Occurrence); o == nil {
		p.misses++
		o = &Occurrence{pool: p}
	}
	o.freed = false
	o.refs = 1
	return o
}

// GetPrimitive is NewPrimitive from pooled storage: the singleton stamp
// lives in the occurrence's inline array, and when the pool has a roster
// and idx names the raising site, the interned singleton is filled from
// idx directly — no map lookup.  The caller owns params (see the package
// comment).
func (p *Pool) GetPrimitive(typ string, class Class, stamp core.Stamp, idx core.Site, params Params) *Occurrence {
	o := p.get()
	o.Type, o.Class, o.Site, o.Params = typ, class, stamp.Site, params
	o.stamp0[0] = stamp
	o.Stamp = o.stamp0[:1]
	if idx != core.NoSite {
		o.istamp0[0] = core.RStamp{Site: idx, Global: stamp.Global, Local: stamp.Local}
		o.Interned = o.istamp0[:1]
	}
	return o
}

// Get returns a blank pooled occurrence, carrying the creator's reference,
// for a caller that fills the exported fields itself — the wire decoder.
// Stamp and Interned come back empty over the occurrence's own storage
// with room for n components (the inline singleton when n is 1), so
// appending up to n components allocates nothing once the slot has held
// as many; Constituents comes back empty with the capacity it had.
func (p *Pool) Get(n int) *Occurrence {
	o := p.get()
	if n == 1 {
		o.Stamp, o.Interned = o.stamp0[:0], o.istamp0[:0]
		return o
	}
	if cap(o.sbuf) < n {
		o.sbuf = make(core.SetStamp, 0, n)
	}
	if cap(o.ibuf) < n {
		o.ibuf = make(core.RSetStamp, 0, n)
	}
	o.Stamp, o.Interned = o.sbuf[:0], o.ibuf[:0]
	return o
}

// GetComposite is NewComposite from pooled storage: it retains every
// constituent, folds the Max-set timestamp (Definition 5.9) in the
// occurrence's reusable buffers, and — when every constituent carries an
// interned stamp — runs the fold integer-only and materializes the string
// form from the roster afterwards, producing byte-for-byte the stamp the
// string fold yields (TestRMaxIntoMatchesMax).  The constituent slice is
// copied, so callers may pass a stack-scoped argument list.
func (p *Pool) GetComposite(typ string, site core.SiteID, cs []*Occurrence) *Occurrence {
	if len(cs) == 0 {
		panic("event: composite occurrence with no constituents")
	}
	o := p.get()
	o.Type, o.Class, o.Site = typ, Composite, site
	buf := o.Constituents[:0]
	for _, c := range cs {
		c.Retain()
		buf = append(buf, c)
	}
	o.Constituents = buf

	interned := p.roster != nil
	for _, c := range cs {
		if len(c.Interned) == 0 {
			interned = false
			break
		}
	}
	if interned {
		acc := cs[0].Interned
		if len(cs) == 1 {
			acc = append(o.ibuf[:0], acc...)
			o.ibuf = acc
		} else {
			bufs := [2]core.RSetStamp{o.ibuf, o.ibuf2}
			k := 0
			for _, c := range cs[1:] {
				bufs[k] = core.RMaxInto(bufs[k][:0], acc, c.Interned)
				acc = bufs[k]
				k = 1 - k
			}
			o.ibuf, o.ibuf2 = bufs[0], bufs[1]
		}
		o.Interned = acc
		o.sbuf = p.roster.AppendStamps(o.sbuf[:0], acc)
		o.Stamp = o.sbuf
		return o
	}
	sacc := cs[0].Stamp
	if len(cs) == 1 {
		sacc = append(o.sbuf[:0], sacc...)
		o.sbuf = sacc
	} else {
		bufs := [2]core.SetStamp{o.sbuf, o.sbuf2}
		k := 0
		for _, c := range cs[1:] {
			bufs[k] = core.MaxInto(bufs[k][:0], sacc, c.Stamp)
			sacc = bufs[k]
			k = 1 - k
		}
		o.sbuf, o.sbuf2 = bufs[0], bufs[1]
	}
	o.Stamp = sacc
	return o
}

// Retain takes one reference on a pooled occurrence and returns it (for
// chaining in store-the-pointer handlers); on an ordinary heap-allocated
// occurrence (or nil) it is a no-op, which is what lets the engine run
// one ledger unconditionally whether pooling is on or off.
func (o *Occurrence) Retain() *Occurrence {
	if o != nil && o.pool != nil {
		o.refs++
	}
	return o
}

// Release drops one reference; the last one recycles the occurrence (and
// cascades into its constituents).  No-op on unpooled or nil occurrences.
func (o *Occurrence) Release() {
	if o == nil || o.pool == nil {
		return
	}
	p := o.pool
	o.refs--
	if o.refs == 0 {
		p.put(o)
	} else if o.refs < 0 {
		// A release after the recycling release: the object may already
		// be in (or out of!) the pool.  Undo, count, and in Strict mode
		// fail loudly.
		o.Retain()
		p.doublePuts++
		if p.Strict {
			panic("event: Release of an already-recycled occurrence (double put)")
		}
	}
}

// Pooled reports whether o participates in a pool's lifecycle.
func (o *Occurrence) Pooled() bool { return o != nil && o.pool != nil }

// Gen returns the occurrence's recycle generation — it increments every
// time the object goes back to the pool, so a reader holding a stale
// pointer can detect use-after-put (pool_test.go).
func (o *Occurrence) Gen() uint32 { return o.gen }

// Refs returns the current reference count (diagnostic).
func (o *Occurrence) Refs() int32 { return o.refs }

// put recycles o: release the constituents, clear every reference-carrying
// field (Params is caller-owned and only dropped — see the package
// comment), bump the generation and return the storage to the pool.  The
// fold buffers and the constituent slice keep their capacity across
// generations; that reuse is the pool's entire point.  Both destinations
// — the front array and the sync.Pool — are stored to here, below the
// clearing.
func (p *Pool) put(o *Occurrence) {
	if o.freed {
		// Unreachable through Release (the refcount goes negative first)
		// but kept as the last line of defense for direct misuse.
		p.doublePuts++
		if p.Strict {
			panic("event: double put of a recycled occurrence")
		}
		return
	}
	o.freed = true
	o.gen++
	p.puts++
	cs := o.Constituents
	for i, c := range cs {
		cs[i] = nil
		c.Release()
	}
	o.Constituents = cs[:0]
	o.Type = ""
	o.TypeID = 0
	o.Class = 0
	o.Site = ""
	o.Seq = 0
	o.Params = nil
	o.Stamp = nil
	o.Interned = nil
	o.Sample = SampleUndecided
	o.Mark = MarkNone
	o.MarkAt = 0
	o.stamp0[0] = core.Stamp{}
	o.istamp0[0] = core.RStamp{}
	o.sbuf = o.sbuf[:0]
	o.sbuf2 = o.sbuf2[:0]
	o.ibuf = o.ibuf[:0]
	o.ibuf2 = o.ibuf2[:0]
	if p.nfree < len(p.free) {
		p.free[p.nfree] = o
		p.nfree++
		return
	}
	p.p.Put(o)
}
