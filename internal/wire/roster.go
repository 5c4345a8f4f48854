package wire

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
)

// This file holds the roster frame and the Codec's single-envelope frames
// (the package comment has the grammar).  The delta form of a heartbeat
// exploits that a watermark's global frontier tracks its own raise time:
// with the granule (microticks per global tick) agreed out of band, the
// difference is a small integer — typically one varint byte where the
// absolute global costs four or five.

// Errors specific to roster frames.
var (
	// ErrUnknownSite marks a site index at or beyond the roster length, or
	// an occurrence naming a site outside the roster.
	ErrUnknownSite = errors.New("wire: site index outside roster")
	// ErrDuplicateSite marks a roster frame whose IDs are not strictly
	// ascending — duplicates and disorder are both corruption, since
	// NewRoster output is canonical by construction.
	ErrDuplicateSite = errors.New("wire: roster sites not strictly ascending")
	// ErrUnknownTypeID marks an event frame whose type index is outside
	// the codec's registry.
	ErrUnknownTypeID = errors.New("wire: event type index outside registry")
	// errIncompleteCodec marks a Codec built without one of its three
	// parts; there is no reduced format to fall back to.
	errIncompleteCodec = errors.New("wire: codec needs a Roster, a positive Granule and a Types registry")
)

// maxRosterSites bounds a roster frame's claimed membership.
const maxRosterSites = 1 << 16

// AppendRoster encodes a roster frame: the sealed membership in canonical
// order, so equal rosters always produce identical bytes.
func AppendRoster(dst []byte, r *core.Roster) []byte {
	dst = append(dst, KindRoster)
	dst = appendUvarint(dst, uint64(r.Len()))
	for _, id := range r.IDs() {
		dst = appendString(dst, string(id))
	}
	return dst
}

// DecodeRoster parses a roster frame, rejecting disorder, duplicates and
// trailing garbage.
func DecodeRoster(buf []byte) (*core.Roster, error) {
	r := &reader{buf: buf}
	kind, err := r.byte()
	if err != nil {
		return nil, err
	}
	if kind != KindRoster {
		return nil, fmt.Errorf("%w: kind %d is not a roster frame", ErrBadTag, kind)
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("wire: empty roster")
	}
	if n > maxRosterSites {
		return nil, fmt.Errorf("%w: roster of %d sites", ErrTruncated, n)
	}
	capHint := n
	if capHint > 1024 {
		capHint = 1024 // never trust the claimed count for allocation
	}
	ids := make([]core.SiteID, 0, capHint)
	prev := ""
	for i := uint64(0); i < n; i++ {
		s, err := r.str(maxString)
		if err != nil {
			return nil, err
		}
		if i > 0 && s <= prev {
			return nil, fmt.Errorf("%w: %q after %q", ErrDuplicateSite, s, prev)
		}
		prev = s
		ids = append(ids, core.SiteID(s))
	}
	if r.pos != len(buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after roster", len(buf)-r.pos)
	}
	return core.NewRoster(ids), nil
}

// Codec is the envelope encoder/decoder of one sealed run.  Both ends
// build it from shared configuration — the roster from the sealed
// membership, the granule from the clock's local-per-global ratio, the
// registry from the shared declarations — so every frame decodes
// statelessly.  All three fields are required: a Codec missing one
// returns an error from every method, it does not change format.
//
// Codec is immutable after construction.  Without a Pool it is safe for
// concurrent use; with one, decoding belongs to the goroutine that owns
// the pool, like every other call on it.
type Codec struct {
	// Roster is the sealed membership site indexes refer to.
	Roster *core.Roster
	// Granule is the number of RaisedAt microticks per global granule
	// (clock's local-per-global ratio), the shared reference the frontier
	// delta is taken against.
	Granule int64
	// Types is the registry type IDs refer to; decode fills
	// Occurrence.TypeID so the receiving detector dispatches without a
	// name lookup.  Both ends must share the declaration order (in the
	// simulator they share the registry itself).
	Types *event.Registry
	// Pool, when non-nil, supplies the storage of decoded occurrences:
	// each comes back carrying the pool's creator reference, which the
	// caller takes over (a composite's constituents are held by the
	// composite).  An occurrence left partly built by a decode error is
	// never released; it falls to the garbage collector.  Nil keeps
	// fresh heap objects.
	Pool *event.Pool
}

// check reports a Codec that cannot encode or decode anything.
func (c *Codec) check() error {
	if c.Roster == nil || c.Granule <= 0 || c.Types == nil {
		return errIncompleteCodec
	}
	return nil
}

// frontierBase is the shared reference point a heartbeat's global
// frontier is delta-encoded against: the granule floor of its raise time.
func (c *Codec) frontierBase(raisedAt int64) int64 {
	g := raisedAt / c.Granule
	if raisedAt < 0 && raisedAt%c.Granule != 0 {
		g--
	}
	return g
}

// EncodeAppend serializes an envelope, appending to dst (which may be nil
// or a recycled buffer): an event as a KindEventTyped frame
// (ErrUnknownSite if the occurrence mentions a site outside the roster),
// a heartbeat as a KindFrontierDelta frame.
func (c *Codec) EncodeAppend(dst []byte, e Envelope) ([]byte, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	switch e.Kind {
	case KindHeartbeat:
		dst = append(dst, KindFrontierDelta)
		dst = appendVarint(dst, e.RaisedAt)
		return appendVarint(dst, e.Global-c.frontierBase(e.RaisedAt)), nil
	case KindEvent:
		if e.Occ == nil {
			return nil, errors.New("wire: event envelope without occurrence")
		}
		dst = append(dst, KindEventTyped)
		dst = appendVarint(dst, e.RaisedAt)
		return c.appendOccurrenceIdx(dst, e.Occ, 0)
	case KindBatch:
		// A batch is a frame of envelopes, not an envelope.
		return nil, ErrNestedBatch
	default:
		return nil, fmt.Errorf("%w: envelope kind %d", ErrBadTag, e.Kind)
	}
}

// Encode is the allocating form of EncodeAppend.
func (c *Codec) Encode(e Envelope) ([]byte, error) {
	return c.EncodeAppend(make([]byte, 0, 64), e)
}

// appendSite writes one site identity as its roster index.
func (c *Codec) appendSite(dst []byte, id core.SiteID) ([]byte, error) {
	s := c.Roster.Site(id)
	if s == core.NoSite {
		return nil, fmt.Errorf("%w: %q not in roster", ErrUnknownSite, id)
	}
	return appendUvarint(dst, uint64(s)), nil
}

// appendOccurrenceIdx is appendOccurrence with every site identity — the
// occurrence's own and each stamp component's — as a roster index and the
// type as a registry ID.  Occurrences usually carry their TypeID already
// (set at raise or by the emitting detector); a zero falls back to one
// registry lookup, and names the registry does not know (anonymous inner
// composites) are escaped as 0 + string.
func (c *Codec) appendOccurrenceIdx(b []byte, o *event.Occurrence, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("wire: occurrence tree deeper than %d", maxDepth)
	}
	id := o.TypeID
	if id == 0 {
		id = c.Types.TypeID(o.Type)
	}
	b = appendUvarint(b, uint64(id))
	if id == 0 {
		b = appendString(b, o.Type)
	}
	b = append(b, byte(o.Class))
	b, err := c.appendSite(b, o.Site)
	if err != nil {
		return nil, err
	}
	b = appendUvarint(b, o.Seq)
	b = appendUvarint(b, uint64(len(o.Stamp)))
	for _, t := range o.Stamp {
		b, err = c.appendSite(b, t.Site)
		if err != nil {
			return nil, err
		}
		b = appendVarint(b, t.Global)
		b = appendVarint(b, t.Local)
	}
	b, err = AppendParams(b, o.Params)
	if err != nil {
		return nil, err
	}
	b = appendUvarint(b, uint64(len(o.Constituents)))
	for _, k := range o.Constituents {
		b, err = c.appendOccurrenceIdx(b, k, depth+1)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// siteIdx reads one site identity, validating the index against the
// roster.
func (c *Codec) siteIdx(r *reader) (core.Site, error) {
	v, err := r.uvarint()
	if err != nil {
		return core.NoSite, err
	}
	if v >= uint64(c.Roster.Len()) {
		return core.NoSite, fmt.Errorf("%w: index %d", ErrUnknownSite, v)
	}
	return core.Site(v), nil
}

func (c *Codec) occurrenceIdx(r *reader, depth int) (*event.Occurrence, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("wire: occurrence tree deeper than %d", maxDepth)
	}
	typeID, typ, err := c.typeRef(r)
	if err != nil {
		return nil, err
	}
	classByte, err := r.byte()
	if err != nil {
		return nil, err
	}
	site, err := c.siteIdx(r)
	if err != nil {
		return nil, err
	}
	seq, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nStamps, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nStamps > maxComponents {
		return nil, fmt.Errorf("%w: %d stamp components", ErrTruncated, nStamps)
	}
	var o *event.Occurrence
	if c.Pool != nil {
		o = c.Pool.Get(int(nStamps))
	} else {
		o = &event.Occurrence{Stamp: make(core.SetStamp, 0, nStamps), Interned: make(core.RSetStamp, 0, nStamps)}
	}
	for i := uint64(0); i < nStamps; i++ {
		// The frame carries the dense index; materialize both forms in
		// one pass, so decoded occurrences keep the interned stamp the
		// sender's pool built (release watermarking and comparisons on
		// the receiving side stay integer-only).
		tsIdx, err := c.siteIdx(r)
		if err != nil {
			return nil, err
		}
		g, err := r.varint()
		if err != nil {
			return nil, err
		}
		l, err := r.varint()
		if err != nil {
			return nil, err
		}
		o.Stamp = append(o.Stamp, core.Stamp{Site: c.Roster.ID(tsIdx), Global: g, Local: l})
		o.Interned = append(o.Interned, core.RStamp{Site: tsIdx, Global: g, Local: l})
	}
	params, err := r.params()
	if err != nil {
		return nil, err
	}
	nKids, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nKids > maxConstituents {
		return nil, fmt.Errorf("%w: %d constituents", ErrTruncated, nKids)
	}
	o.Type, o.TypeID, o.Class = typ, typeID, event.Class(classByte)
	o.Site, o.Seq, o.Params = c.Roster.ID(site), seq, params
	for i := uint64(0); i < nKids; i++ {
		k, err := c.occurrenceIdx(r, depth+1)
		if err != nil {
			return nil, err
		}
		o.Constituents = append(o.Constituents, k)
	}
	return o, nil
}

// typeRef reads one type identity: a dense registry ID, or the 0 escape
// followed by the literal name (which may still resolve — a registry that
// learned the name after the sender encoded it).
func (c *Codec) typeRef(r *reader) (event.TypeID, string, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, "", err
	}
	if v == 0 {
		typ, err := r.str(maxString)
		if err != nil {
			return 0, "", err
		}
		return c.Types.TypeID(typ), typ, nil
	}
	id := event.TypeID(v)
	if uint64(id) != v { // overflow
		return 0, "", fmt.Errorf("%w: index %d", ErrUnknownTypeID, v)
	}
	name := c.Types.NameOf(id)
	if name == "" {
		return 0, "", fmt.Errorf("%w: index %d", ErrUnknownTypeID, v)
	}
	return id, name, nil
}

// Decode parses one envelope frame — KindEventTyped or KindFrontierDelta
// — rejecting every other tag and trailing garbage.
func (c *Codec) Decode(buf []byte) (Envelope, error) {
	return c.envelope(&reader{buf: buf})
}

// envelope reads the one envelope frame that runs from r's position to the
// end of r.buf.
func (c *Codec) envelope(r *reader) (Envelope, error) {
	if err := c.check(); err != nil {
		return Envelope{}, err
	}
	kind, err := r.byte()
	if err != nil {
		return Envelope{}, err
	}
	switch kind {
	case KindEventTyped, KindFrontierDelta:
	case KindBatch:
		// The layout after KindBatch is a count, not an envelope body;
		// batches go through DecodeBatch and never nest.
		return Envelope{}, ErrNestedBatch
	default:
		return Envelope{}, fmt.Errorf("%w: envelope kind %d", ErrBadTag, kind)
	}
	raisedAt, err := r.varint()
	if err != nil {
		return Envelope{}, err
	}
	e := Envelope{RaisedAt: raisedAt}
	if kind == KindFrontierDelta {
		delta, err := r.varint()
		if err != nil {
			return Envelope{}, err
		}
		e.Kind = KindHeartbeat
		e.Global = c.frontierBase(raisedAt) + delta
	} else {
		o, err := c.occurrenceIdx(r, 0)
		if err != nil {
			return Envelope{}, err
		}
		e.Kind = KindEvent
		e.Occ = o
	}
	if r.pos != len(r.buf) {
		return Envelope{}, fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.pos)
	}
	return e, nil
}
