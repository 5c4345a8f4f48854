// Package wire is the binary format of everything the distributed
// detector puts on a byte transport or on disk.
//
// On the transport a site is its dense index in the sealed core.Roster
// and a declared event type its dense event.Registry ID; Codec, built
// once per sealed system from the roster, the clock granule and the
// registry, is the one envelope encoder and decoder.  With
// ddetect.Config.Serialize set every envelope crossing the simulated bus
// goes through it, so the engine demonstrably needs no shared memory
// between sites, and the codec's cost is measurable (BenchmarkWireCodec).
//
// Frame grammar (one tag byte, then the body; DESIGN.md §2e):
//
//	KindRoster        | uvarint n | n × string        (strictly ascending)
//	KindEventTyped    | varint raisedAt | occurrence, sites and types as indexes
//	KindFrontierDelta | varint raisedAt | varint (global − raisedAt/granule)
//	KindBatch         | uvarint count | count × (uvarint length | frame)
//
// A batch of one KindFrontierDelta member — a heartbeat and nothing else,
// eight or nine bytes — is nearly every message a detector's bus carries.
// It has no format of its own, only an encoder and a recognizer that skip
// the general machinery (AppendFrontier, DecodeFrontier); every other
// batch goes through AppendBatch and DecodeBatch.
//
// The eventlog journal stores a different record, AppendOccurrence's: the
// same occurrence tree with sites and types spelled out as strings.  A
// journal must stay readable after the roster that wrote it is gone, so
// that record deliberately depends on no roster and no registry.
//
// Everything is varint-based (encoding/binary), no reflection.  Integers
// are zigzag varints; strings are length-prefixed UTF-8.  Parameter
// values support the types the engine itself produces: int, int64,
// uint64, float64, bool and string.  Every decoder treats its input as
// hostile: counts and lengths are bounded, nothing is allocated on a
// claimed size, and malformed input is an error, never a panic.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/event"
)

// Value type tags for parameters.
const (
	tagInt64 byte = iota
	tagFloat64
	tagString
	tagBool
	tagUint64
)

// Envelope kinds and frame tags.  KindEvent and KindHeartbeat are the two
// values of Envelope.Kind; they are not frame tags (an event travels as a
// KindEventTyped frame, a heartbeat as a KindFrontierDelta frame), and a
// frame that starts with either is rejected like any unknown tag.
const (
	// KindEvent marks an envelope carrying an occurrence.
	KindEvent byte = 1
	// KindHeartbeat marks an envelope carrying a watermark.
	KindHeartbeat byte = 2
	// KindBatch tags a frame coalescing several envelopes (see
	// Codec.AppendBatch).  Batches never nest.
	KindBatch byte = 3
	// KindRoster tags a sealed site membership (see AppendRoster).
	KindRoster byte = 4
	// KindFrontierDelta tags a heartbeat: the global frontier as a delta
	// against the raise time's granule.
	KindFrontierDelta byte = 6
	// KindEventTyped tags an occurrence whose sites travel as roster
	// indexes and whose declared types travel as registry IDs; undeclared
	// names (anonymous inner composites like "(A ; B)") travel as a 0
	// marker followed by the string.
	KindEventTyped byte = 7
)

// Errors returned by the decoder.
var (
	ErrTruncated   = errors.New("wire: truncated message")
	ErrBadTag      = errors.New("wire: unknown tag")
	ErrUnsupported = errors.New("wire: unsupported parameter type")
	// ErrNestedBatch marks a KindBatch frame inside a batch (or handed to
	// the single-envelope Codec.Decode): batches are a transport framing, one
	// level deep by construction, so a nested one is always corruption or
	// an attack.
	ErrNestedBatch = errors.New("wire: batch frame inside an envelope position")
)

// limits guard against hostile or corrupt input.
const (
	maxString       = 1 << 16
	maxComponents   = 1 << 12
	maxParams       = 1 << 12
	maxConstituents = 1 << 16
	maxDepth        = 64
	maxBatch        = 1 << 16
)

// --- primitives -----------------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

func (r *reader) str(limit int) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(limit) || r.pos+int(n) > len(r.buf) {
		return "", ErrTruncated
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrTruncated
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// --- stamps -----------------------------------------------------------------

// appendStamp encodes one primitive stamp.
func appendStamp(b []byte, t core.Stamp) []byte {
	b = appendString(b, string(t.Site))
	b = appendVarint(b, t.Global)
	return appendVarint(b, t.Local)
}

func (r *reader) stamp() (core.Stamp, error) {
	site, err := r.str(maxString)
	if err != nil {
		return core.Stamp{}, err
	}
	g, err := r.varint()
	if err != nil {
		return core.Stamp{}, err
	}
	l, err := r.varint()
	if err != nil {
		return core.Stamp{}, err
	}
	return core.Stamp{Site: core.SiteID(site), Global: g, Local: l}, nil
}

// appendSetStamp encodes a composite timestamp.
func appendSetStamp(b []byte, s core.SetStamp) []byte {
	b = appendUvarint(b, uint64(len(s)))
	for _, t := range s {
		b = appendStamp(b, t)
	}
	return b
}

func (r *reader) setStamp() (core.SetStamp, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxComponents {
		return nil, fmt.Errorf("%w: %d stamp components", ErrTruncated, n)
	}
	out := make(core.SetStamp, 0, n)
	for i := uint64(0); i < n; i++ {
		t, err := r.stamp()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// --- params -----------------------------------------------------------------

// keysPool recycles the sorted-key scratch slice AppendParams needs for
// deterministic key order, so steady-state encoding of parameterized
// occurrences allocates nothing.
var keysPool = sync.Pool{New: func() any { return new([]string) }}

// AppendParams encodes a parameter list with deterministic key order.
func AppendParams(b []byte, p event.Params) ([]byte, error) {
	if len(p) == 0 {
		return appendUvarint(b, 0), nil
	}
	kp := keysPool.Get().(*[]string)
	keys := (*kp)[:0]
	//lint:allow mapiter — keys are collected then sorted; the encoded order is deterministic whatever order the range yields
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = appendUvarint(b, uint64(len(keys)))
	var err error
	for _, k := range keys {
		b = appendString(b, k)
		b, err = appendValue(b, p[k])
		if err != nil {
			err = fmt.Errorf("%w (key %q)", err, k)
			b = nil
			break
		}
	}
	clear(keys) // drop the string references before pooling
	*kp = keys[:0]
	keysPool.Put(kp)
	return b, err
}

func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case int64:
		return appendVarint(append(b, tagInt64), x), nil
	case int:
		return appendVarint(append(b, tagInt64), int64(x)), nil
	case uint64:
		return appendUvarint(append(b, tagUint64), x), nil
	case float64:
		b = append(b, tagFloat64)
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
		return append(b, tmp[:]...), nil
	case string:
		return appendString(append(b, tagString), x), nil
	case bool:
		b = append(b, tagBool)
		if x {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, v)
	}
}

func (r *reader) params() (event.Params, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxParams {
		return nil, fmt.Errorf("%w: %d params", ErrTruncated, n)
	}
	p := make(event.Params, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.str(maxString)
		if err != nil {
			return nil, err
		}
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		p[k] = v
	}
	return p, nil
}

func (r *reader) value() (any, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagInt64:
		return r.varint()
	case tagUint64:
		return r.uvarint()
	case tagFloat64:
		if r.pos+8 > len(r.buf) {
			return nil, ErrTruncated
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
		r.pos += 8
		return v, nil
	case tagString:
		return r.str(maxString)
	case tagBool:
		b, err := r.byte()
		if err != nil {
			return nil, err
		}
		return b != 0, nil
	default:
		return nil, fmt.Errorf("%w: value tag %d", ErrBadTag, tag)
	}
}

// --- occurrences ------------------------------------------------------------

// AppendOccurrence encodes an occurrence with its constituent tree as the
// journal record: sites and types as strings, no roster needed to read it.
func AppendOccurrence(b []byte, o *event.Occurrence) ([]byte, error) {
	return appendOccurrence(b, o, 0)
}

func appendOccurrence(b []byte, o *event.Occurrence, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("wire: occurrence tree deeper than %d", maxDepth)
	}
	b = appendString(b, o.Type)
	b = append(b, byte(o.Class))
	b = appendString(b, string(o.Site))
	b = appendUvarint(b, o.Seq)
	b = appendSetStamp(b, o.Stamp)
	var err error
	b, err = AppendParams(b, o.Params)
	if err != nil {
		return nil, err
	}
	b = appendUvarint(b, uint64(len(o.Constituents)))
	for _, c := range o.Constituents {
		b, err = appendOccurrence(b, c, depth+1)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (r *reader) occurrence(depth int) (*event.Occurrence, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("wire: occurrence tree deeper than %d", maxDepth)
	}
	typ, err := r.str(maxString)
	if err != nil {
		return nil, err
	}
	classByte, err := r.byte()
	if err != nil {
		return nil, err
	}
	site, err := r.str(maxString)
	if err != nil {
		return nil, err
	}
	seq, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	stamp, err := r.setStamp()
	if err != nil {
		return nil, err
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
	o := &event.Occurrence{
		Type:   typ,
		Class:  event.Class(classByte),
		Site:   core.SiteID(site),
		Seq:    seq,
		Stamp:  stamp,
		Params: params,
	}
	for i := uint64(0); i < nKids; i++ {
		c, err := r.occurrence(depth + 1)
		if err != nil {
			return nil, err
		}
		o.Constituents = append(o.Constituents, c)
	}
	return o, nil
}

// --- envelopes ---------------------------------------------------------------

// Envelope is the transport-level message: either an event occurrence or a
// heartbeat watermark, plus the raise time used for latency accounting (for
// a heartbeat, its nominal instant — the reference its frontier is
// delta-encoded against).
type Envelope struct {
	Kind     byte // KindEvent or KindHeartbeat
	Occ      *event.Occurrence
	Global   int64
	RaisedAt int64
}

// DecodeOccurrence parses a bare occurrence (as produced by
// AppendOccurrence), rejecting trailing garbage.
func DecodeOccurrence(buf []byte) (*event.Occurrence, error) {
	r := &reader{buf: buf}
	o, err := r.occurrence(0)
	if err != nil {
		return nil, err
	}
	if r.pos != len(buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(buf)-r.pos)
	}
	return o, nil
}
