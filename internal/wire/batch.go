package wire

import (
	"errors"
	"fmt"
	"sync"

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

// scratchPool recycles the per-envelope staging buffer AppendBatch needs
// to learn each member's length before writing its prefix.  With a
// recycled dst and a warm pool, batch encoding is allocation-free.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// AppendBatch encodes envs as one batch frame, appending to dst (which
// may be nil or a recycled buffer).  It rejects empty batches and
// KindBatch members.
func (c *Codec) AppendBatch(dst []byte, envs []Envelope) ([]byte, error) {
	if len(envs) == 0 {
		return nil, errors.New("wire: empty batch")
	}
	if len(envs) > maxBatch {
		//lint:allow hotalloc — error path: oversized batches are a caller bug, never the steady state
		return nil, fmt.Errorf("wire: batch of %d envelopes exceeds %d", len(envs), maxBatch)
	}
	dst = append(dst, KindBatch)
	dst = appendUvarint(dst, uint64(len(envs)))
	sp := scratchPool.Get().(*[]byte)
	scratch := *sp
	var err error
	for i := range envs {
		scratch, err = c.EncodeAppend(scratch[:0], envs[i])
		if err != nil {
			err = fmt.Errorf("wire: batch envelope %d: %w", i, err)
			dst = nil
			break
		}
		dst = appendUvarint(dst, uint64(len(scratch)))
		dst = append(dst, scratch...)
	}
	*sp = scratch[:0]
	scratchPool.Put(sp)
	return dst, err
}

// IsBatch reports whether buf starts a batch frame.
func IsBatch(buf []byte) bool {
	return len(buf) > 0 && buf[0] == KindBatch
}

// DecodeBatch parses a batch frame, handing each member envelope to fn in
// frame order; fn's error aborts the scan.  Decoding streams: memory use
// is bounded by one envelope regardless of the count the frame claims,
// and all the single-envelope hostile-input limits apply to each member.
func (c *Codec) DecodeBatch(buf []byte, fn func(Envelope) error) error {
	r := &reader{buf: buf}
	kind, err := r.byte()
	if err != nil {
		return err
	}
	if kind != KindBatch {
		//lint:allow hotalloc — error path: rejecting a non-batch frame; never formats on valid input
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
		if l > uint64(len(r.buf)-r.pos) {
			return fmt.Errorf("%w: batch envelope %d claims %d bytes", ErrTruncated, i, l)
		}
		member := r.buf[r.pos : r.pos+int(l)]
		r.pos += int(l)
		// Decode rejects trailing garbage, so the member must fill its
		// declared window exactly, and rejects KindBatch (ErrNestedBatch).
		e, err := c.Decode(member)
		if err != nil {
			return fmt.Errorf("wire: batch envelope %d: %w", i, err)
		}
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
