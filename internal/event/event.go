// Package event defines the event model of Sentinel as used by the paper:
// typed primitive events raised at sites (Section 3.1) and event
// occurrences — primitive or composite — carrying the distributed
// timestamps of internal/core (Sections 4 and 5).
//
// An event (Definition 3.1 / Section 5.3) is a function from the time
// (stamp) domain to booleans; operationally an event *type* names a
// pattern and an *occurrence* is one instant at which the function is
// true, together with its timestamp and parameters.  Composite occurrences
// additionally reference the constituent occurrences that made them true,
// which is what Sentinel propagates to rule conditions and actions.
package event

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// Class is the kind of a primitive event, following the taxonomy the
// paper inherits from Sentinel and [10]: temporal events, data
// manipulation (database) events, transaction events, and explicit
// (abstract, application-raised) events.
type Class int

const (
	// Temporal events are clock events (absolute or relative time).
	Temporal Class = iota
	// Database events are data-manipulation events (insert, update,
	// delete, retrieve) raised by the active database substrate.
	Database
	// Transaction events are begin/commit/abort events.
	Transaction
	// Explicit events are raised directly by applications.
	Explicit
	// Composite marks occurrences produced by an operator node rather
	// than a primitive source.
	Composite
)

func (c Class) String() string {
	switch c {
	case Temporal:
		return "temporal"
	case Database:
		return "database"
	case Transaction:
		return "transaction"
	case Explicit:
		return "explicit"
	case Composite:
		return "composite"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Type describes an event type: the name of an interesting primitive
// event, or the name of a composite pattern.
type Type struct {
	Name  string
	Class Class
}

// TypeID is a dense registry-assigned identifier for an event type,
// numbered from 1 in declaration order.  0 is the unresolved sentinel —
// the zero value of an occurrence built outside a registry — so slices
// indexed by TypeID reserve slot 0 and dispatch falls back to a name
// lookup when it sees it.  IDs mirror PR 6's core.Site roster interning,
// but for event *types*: the detector's routing tables index dense
// []TypeID slices instead of hashing type-name strings per occurrence.
type TypeID int32

// Params is an event occurrence's parameter list.  Keys are parameter
// names; values are application data (object identity, attribute values,
// tick counts, …).
type Params map[string]any

// Clone returns an independent shallow copy.
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// String renders the parameters deterministically (sorted by key).
func (p Params) String() string {
	if len(p) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", k, p[k])
	}
	b.WriteByte('}')
	return b.String()
}

// SampleState is the tri-state head-sampling decision carried by an
// occurrence.  The zero value is Undecided so hand-built and decoded
// occurrences default to "not yet decided", which span gates treat as
// kept — only an explicit Drop suppresses lineage spans.
type SampleState uint8

const (
	// SampleUndecided means no sampler has ruled on this occurrence.
	SampleUndecided SampleState = iota
	// SampleKeep marks the occurrence's lineage as sampled.
	SampleKeep
	// SampleDrop suppresses the occurrence's lineage spans.
	SampleDrop
)

// StageMark names the pipeline-stage boundary an occurrence last crossed
// (see Occurrence.Mark).  The zero value means "no crossing recorded".
type StageMark uint8

const (
	// MarkNone is the unset sentinel.
	MarkNone StageMark = iota
	// MarkRaise: entered the system at its origin site.
	MarkRaise
	// MarkSend: left the origin inside a transport envelope.
	MarkSend
	// MarkRecv: arrived at a consumer site.
	MarkRecv
	// MarkRelease: handed to the detectors by the reorder buffer.
	MarkRelease
)

// Occurrence is one occurrence of an event — the operational counterpart
// of "E(ts) = true".  Primitive occurrences have a singleton Stamp and no
// constituents.  Composite occurrences carry the max-set timestamp built
// by core.Max over their constituents (Definition 5.9) and reference the
// constituent occurrences, which is how parameters are made available to
// ECA conditions and actions.
type Occurrence struct {
	// Type is the event type name.
	Type string
	// TypeID is the dense registry ID for Type, or 0 when the occurrence
	// was built without a registry in reach (hand-built tests, rosterless
	// wire decode).  The detector resolves 0 lazily on publish; every
	// in-pipeline producer (ingest, wire decode, composite emission) sets
	// it so the hot dispatch path never touches the type-name string.
	TypeID TypeID
	// Class distinguishes primitive classes from composite occurrences.
	Class Class
	// Site is the site at which the occurrence was raised (primitive) or
	// detected (composite).
	Site core.SiteID
	// Stamp is the distributed timestamp: a singleton for primitive
	// events, a mutually concurrent max-set for composite events.
	Stamp core.SetStamp
	// Seq is a per-site, per-stream sequence number used by the
	// transport layer to restore FIFO order; it has no temporal
	// semantics across sites.
	Seq uint64
	// Params is the occurrence's parameter list.
	Params Params
	// Constituents are the child occurrences of a composite occurrence,
	// in detection order.
	Constituents []*Occurrence
	// Interned is the roster-interned form of Stamp, carried only by
	// occurrences built through a Pool attached to a sealed roster
	// (string sites survive at the wire/rosterless boundary and in
	// reference.go).  When two occurrences both carry it, stamp
	// comparisons run integer-only; when either lacks it, callers fall
	// back to the string algebra — the two agree on every valid set
	// (rsetstamp_test.go), so the fallback is invisible in output.
	Interned core.RSetStamp

	// Sample is the head-sampling decision for this occurrence's lineage
	// spans (obs.Sampler): undecided until the engine stamps it at raise
	// (or, for composites, at publish as the AND over constituents).  It
	// gates span emission only — stats, eventlogs and detection are
	// sampling-blind.  Cleared on recycle like every other pooled field.
	Sample SampleState

	// Mark/MarkAt track the last pipeline-stage boundary this occurrence
	// crossed (MarkRaise…MarkRelease) and the simulated microtick it did,
	// feeding the engine's per-stage latency attribution.  For an
	// occurrence consumed at several sites the mark follows the most
	// recent crossing in crank order — a deterministic approximation
	// documented with the stage legs in internal/ddetect.
	Mark   StageMark
	MarkAt int64

	// Pool lifecycle state (see pool.go).  pool is nil for ordinary
	// heap-allocated occurrences, for which Retain/Release are no-ops.
	pool *Pool
	// refs is the reference count, touched only by the goroutine that
	// owns the pool (see pool.go).
	refs  int32
	gen   uint32
	freed bool
	// Inline and reusable storage: stamp0/istamp0 back the singleton
	// stamp of a pooled primitive; sbuf/sbuf2 and ibuf/ibuf2 are the
	// ping-pong fold buffers a pooled composite builds its stamp in; the
	// recycled Constituents slice keeps its capacity across generations.
	stamp0  [1]core.Stamp
	istamp0 [1]core.RStamp
	sbuf    core.SetStamp
	sbuf2   core.SetStamp
	ibuf    core.RSetStamp
	ibuf2   core.RSetStamp
}

// NewPrimitive builds a primitive occurrence from a single stamp.
func NewPrimitive(typ string, class Class, stamp core.Stamp, params Params) *Occurrence {
	return &Occurrence{
		Type:   typ,
		Class:  class,
		Site:   stamp.Site,
		Stamp:  core.Singleton(stamp),
		Params: params,
	}
}

// NewComposite builds a composite occurrence at the given detection site.
// Its timestamp is the Max fold over the constituents' timestamps — the
// paper's Max-operator propagation (Definition 5.9) — and its
// constituents are recorded in the order given.
//
// The fold uses core.MaxShared: occurrence stamps are immutable after
// construction, so a single-constituent composite shares its
// constituent's stamp instead of cloning it, and the multi-constituent
// case allocates only the folded results.  This is the innermost
// allocation site of the whole detection engine.
func NewComposite(typ string, site core.SiteID, constituents ...*Occurrence) *Occurrence {
	if len(constituents) == 0 {
		panic("event: composite occurrence with no constituents")
	}
	stamp := constituents[0].Stamp
	for _, c := range constituents[1:] {
		stamp = core.MaxShared(stamp, c.Stamp)
	}
	return &Occurrence{
		Type:  typ,
		Class: Composite,
		Site:  site,
		Stamp: stamp,
		// Params stays nil: composite parameters live on the constituents
		// (see Flatten), nothing writes into a composite's own map, and an
		// empty map per composite was measurable garbage on the detect path.
		Constituents: constituents,
	}
}

// String renders the occurrence compactly, e.g.
// "Deposit@bank1 {(bank1, 12, 123)} {amount=40}".
func (o *Occurrence) String() string {
	if o == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s@%s %s %s", o.Type, o.Site, o.Stamp, o.Params)
}

// Flatten returns the primitive occurrences underlying o in left-to-right
// constituent order (o itself if primitive).  This is the parameter list a
// cumulative context presents to rules.
func (o *Occurrence) Flatten() []*Occurrence {
	if len(o.Constituents) == 0 {
		return []*Occurrence{o}
	}
	return o.AppendFlatten(nil)
}

// AppendFlatten is Flatten with caller-provided storage: the primitive
// occurrences are appended to dst and the extended slice returned, so a
// reused scratch buffer makes repeated flattening allocation-free.
func (o *Occurrence) AppendFlatten(dst []*Occurrence) []*Occurrence {
	if len(o.Constituents) == 0 {
		return append(dst, o)
	}
	for _, c := range o.Constituents {
		dst = c.AppendFlatten(dst)
	}
	return dst
}

// StampLess compares two occurrences' timestamps under the composite "<"
// (Definition 5.3(2)), integer-only when both carry interned stamps and
// via the string algebra otherwise.  The two paths agree on every valid
// set (core's differential tests), so which one runs is unobservable in
// detection output.
func StampLess(a, b *Occurrence) bool {
	if len(a.Interned) > 0 && len(b.Interned) > 0 {
		return a.Interned.Less(b.Interned)
	}
	return a.Stamp.Less(b.Stamp)
}

// StampConcurrent is StampLess for the composite "~" (Definition 5.3(1)).
func StampConcurrent(a, b *Occurrence) bool {
	if len(a.Interned) > 0 && len(b.Interned) > 0 {
		return a.Interned.ConcurrentWith(b.Interned)
	}
	return a.Stamp.ConcurrentWith(b.Stamp)
}

// StampWeakLE is StampLess for the composite "⪯" (Definition 5.4).
func StampWeakLE(a, b *Occurrence) bool {
	if len(a.Interned) > 0 && len(b.Interned) > 0 {
		return a.Interned.WeakLE(b.Interned)
	}
	return a.Stamp.WeakLE(b.Stamp)
}

// ErrDuplicateType reports a second registration of an event type name.
var ErrDuplicateType = errors.New("event: duplicate event type")

// ErrUnknownType reports a reference to an unregistered event type.
var ErrUnknownType = errors.New("event: unknown event type")

// Registry is the catalog of declared event types.  Sentinel requires
// events be pre-defined before use in expressions; the registry enforces
// that and records each type's class.  It is safe for concurrent use.
type Registry struct {
	// mu backs the concurrent-use contract above: one registry is shared
	// by every site's detector and handed out by System.Registry, so a
	// lookup on one goroutine can meet a Declare on another.  Reads
	// vastly outnumber writes, hence the RWMutex.
	mu    sync.RWMutex
	types map[string]Type
	// Dense interning: ids maps name → TypeID (from 1, declaration
	// order) and byID is the inverse with slot 0 reserved for the
	// unresolved sentinel.  Declaration order is deterministic in this
	// codebase (definitions and alphabets are set up in program order
	// before traffic), so IDs are reproducible run to run.
	ids  map[string]TypeID
	byID []Type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		types: make(map[string]Type),
		ids:   make(map[string]TypeID),
		byID:  make([]Type, 1), // slot 0 = unresolved sentinel
	}
}

// Declare registers an event type.
func (r *Registry) Declare(name string, class Class) (Type, error) {
	if name == "" {
		return Type{}, errors.New("event: empty event type name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.types[name]; dup {
		return Type{}, fmt.Errorf("%w: %q", ErrDuplicateType, name)
	}
	t := Type{Name: name, Class: class}
	r.types[name] = t
	r.ids[name] = TypeID(len(r.byID))
	r.byID = append(r.byID, t)
	return t, nil
}

// MustDeclare is Declare that panics on error.
func (r *Registry) MustDeclare(name string, class Class) Type {
	t, err := r.Declare(name, class)
	if err != nil {
		panic(err)
	}
	return t
}

// Lookup returns the type registered under name.
func (r *Registry) Lookup(name string) (Type, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.types[name]
	if !ok {
		return Type{}, fmt.Errorf("%w: %q", ErrUnknownType, name)
	}
	return t, nil
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.types[name]
	return ok
}

// TypeID returns the dense ID registered for name, or 0 if the name is
// unknown.
func (r *Registry) TypeID(name string) TypeID {
	r.mu.RLock()
	id := r.ids[name]
	r.mu.RUnlock()
	return id
}

// NameOf returns the type name for a dense ID, or "" for 0 and
// out-of-range IDs.
func (r *Registry) NameOf(id TypeID) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id <= 0 || int(id) >= len(r.byID) {
		return ""
	}
	return r.byID[id].Name
}

// TypeOf returns the Type for a dense ID and whether the ID is valid.
func (r *Registry) TypeOf(id TypeID) (Type, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id <= 0 || int(id) >= len(r.byID) {
		return Type{}, false
	}
	return r.byID[id], true
}

// Count returns the number of declared types.  Valid TypeIDs are
// 1..Count inclusive, so a slice of length Count+1 indexes every type.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID) - 1
}

// Names returns the registered type names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.types))
	for n := range r.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
