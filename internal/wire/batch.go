package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/event"
)

// This file is the batch framing the transport layer coalesces a tick's
// per-link traffic with (see internal/ddetect and DESIGN.md §2e):
//
//	KindBatch | uvarint count | count × (uvarint length | envelope bytes)
//
// Each member is a complete single-envelope frame as produced by
// Codec.EncodeAppend, so the batch adds exactly one byte, one count and
// one length prefix per member over the unbatched wire format.  Batches
// never nest: a KindBatch byte in an envelope position is ErrNestedBatch,
// both when encoding and when decoding, so the frame grammar stays one
// level deep no matter what arrives off the network.
//
// The batch of one heartbeat — most of a bus's messages — has an encoder
// and a recognizer of its own (AppendFrontier, DecodeFrontier) beside the
// general pair.

// AppendBatch encodes envs as one batch frame, appending to dst (which
// may be nil or a recycled buffer).  It rejects empty batches and
// KindBatch members.
//
// The encoding is one pass: each member is written directly behind a
// one-byte slot reserved for its length, which is what the length takes
// for any member under 128 bytes (every heartbeat, and an event without
// long parameters).  A longer member is moved up by the extra bytes its
// length needs once that length is known.
func (c *Codec) AppendBatch(dst []byte, envs []Envelope) ([]byte, error) {
	if len(envs) == 0 {
		return nil, errors.New("wire: empty batch")
	}
	if len(envs) > maxBatch {
		return nil, fmt.Errorf("wire: batch of %d envelopes exceeds %d", len(envs), maxBatch)
	}
	dst = append(dst, KindBatch)
	dst = appendUvarint(dst, uint64(len(envs)))
	var err error
	for i := range envs {
		slot := len(dst)
		dst, err = c.EncodeAppend(append(dst, 0), envs[i])
		if err != nil {
			return nil, fmt.Errorf("wire: batch envelope %d: %w", i, err)
		}
		dst = fillLength(dst, slot)
	}
	return dst, nil
}

// fillLength writes the uvarint length of the member dst[slot+1:] into the
// one byte reserved at dst[slot], first moving the member up when the
// length needs more than that byte.
func fillLength(dst []byte, slot int) []byte {
	n := len(dst) - slot - 1
	if n < 0x80 {
		dst[slot] = byte(n)
		return dst
	}
	var prefix [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(prefix[:], uint64(n))
	dst = append(dst, prefix[:k-1]...) // grow by the extra length bytes
	copy(dst[slot+k:], dst[slot+1:slot+1+n])
	copy(dst[slot:], prefix[:k])
	return dst
}

// AppendFrontier encodes the batch frame of one heartbeat — the frontier
// global raised at the nominal instant at — appending to dst: byte for
// byte what AppendBatch gives that lone envelope.  It is the encoder of
// the message that is most of the bus's traffic (see DESIGN.md §2e).
func (c *Codec) AppendFrontier(dst []byte, global, at int64) ([]byte, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	slot := len(dst) + 2
	dst = append(dst, KindBatch, 1, 0, KindFrontierDelta)
	dst = appendVarint(dst, at)
	dst = appendVarint(dst, global-c.frontierBase(at))
	dst[slot] = byte(len(dst) - slot - 1) // two varints: at most 21 bytes
	return dst, nil
}

// DecodeFrontier recognizes the frame AppendFrontier writes: ok reports
// that buf is, in canonical form, a valid batch of exactly one heartbeat,
// whose frontier and nominal instant are returned.  It applies to those
// bytes every check DecodeBatch does — tag, count, declared length equal
// to what remains, both varints whole, nothing trailing, a complete codec
// — and leaves every other input, well-formed or not, to DecodeBatch,
// which decodes or rejects it as it always has.
func (c *Codec) DecodeFrontier(buf []byte) (global, at int64, ok bool) {
	if len(buf) < 6 || buf[0] != KindBatch || buf[1] != 1 || int(buf[2]) != len(buf)-3 ||
		buf[3] != KindFrontierDelta || c.check() != nil {
		return 0, 0, false
	}
	at, n := binary.Varint(buf[4:])
	if n <= 0 {
		return 0, 0, false
	}
	delta, m := binary.Varint(buf[4+n:])
	if m <= 0 || 4+n+m != len(buf) {
		return 0, 0, false
	}
	return c.frontierBase(at) + delta, at, true
}

// IsBatch reports whether buf starts a batch frame.
func IsBatch(buf []byte) bool {
	return len(buf) > 0 && buf[0] == KindBatch
}

// DecodeBatch parses a batch frame, handing each member envelope to fn in
// frame order; fn's error aborts the scan.  Decoding streams: memory use
// is bounded by one envelope regardless of the count the frame claims,
// and all the single-envelope hostile-input limits apply to each member.
// One reader walks the whole frame, narrowed to each member's declared
// window in turn.
func (c *Codec) DecodeBatch(buf []byte, fn func(Envelope) error) error {
	r := &reader{buf: buf}
	kind, err := r.byte()
	if err != nil {
		return err
	}
	if kind != KindBatch {
		return fmt.Errorf("%w: kind %d is not a batch frame", ErrBadTag, kind)
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n == 0 {
		return errors.New("wire: empty batch")
	}
	if n > maxBatch {
		return fmt.Errorf("%w: batch of %d envelopes", ErrTruncated, n)
	}
	for i := uint64(0); i < n; i++ {
		l, err := r.uvarint()
		if err != nil {
			return err
		}
		if l > uint64(len(buf)-r.pos) {
			return fmt.Errorf("%w: batch envelope %d claims %d bytes", ErrTruncated, i, l)
		}
		// envelope rejects trailing garbage, so the member must fill its
		// declared window exactly, and rejects KindBatch (ErrNestedBatch).
		r.buf = buf[:r.pos+int(l)]
		e, err := c.envelope(r)
		if err != nil {
			return fmt.Errorf("wire: batch envelope %d: %w", i, err)
		}
		r.buf = buf
		if err := fn(e); err != nil {
			return err
		}
	}
	if r.pos != len(buf) {
		return fmt.Errorf("wire: %d trailing bytes after batch", len(buf)-r.pos)
	}
	return nil
}

// ValidateOccurrence reports whether o would survive AppendOccurrence —
// same depth limit, same parameter-type support — without paying for the
// encoding.  The raise path uses it to fail unencodable occurrences
// eagerly, at the Raise call, rather than at the deferred transport
// flush.
func ValidateOccurrence(o *event.Occurrence) error {
	return validateOccurrence(o, 0)
}

func validateOccurrence(o *event.Occurrence, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("wire: occurrence tree deeper than %d", maxDepth)
	}
	//lint:allow mapiter — type checks only: validity is order-independent (at worst the key named in the error varies, and errors never reach the occurrence stream)
	for k, v := range o.Params {
		switch v.(type) {
		case int64, int, uint64, float64, string, bool:
		default:
			return fmt.Errorf("%w: %T (key %q)", ErrUnsupported, v, k)
		}
	}
	for _, c := range o.Constituents {
		if err := validateOccurrence(c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
