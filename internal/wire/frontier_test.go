package wire

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/event"
)

// envelopeOfSize builds an event envelope whose single frame is exactly n
// bytes, by padding two string parameters (two, so that the byte a longer
// length prefix adds cannot step over n).
func envelopeOfSize(t *testing.T, c *Codec, n int) Envelope {
	t.Helper()
	for small := 0; small < 4; small++ {
		for pad := 0; pad <= n; pad++ {
			occ := event.NewPrimitive("Deposit", event.Database, stamp("bank1", 11), event.Params{
				"a": strings.Repeat("x", pad), "b": strings.Repeat("y", small),
			})
			env := Envelope{Kind: KindEvent, Occ: occ, RaisedAt: 100}
			frame, err := c.Encode(env)
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) == n {
				return env
			}
			if len(frame) > n {
				break
			}
		}
	}
	t.Fatalf("no event envelope of %d bytes", n)
	return Envelope{}
}

// The one-pass AppendBatch must produce the bytes of the two-pass
// construction it replaced, at every length-prefix width and for mixed
// event/heartbeat runs, appended behind whatever dst already held.
func TestAppendBatchMatchesTwoPass(t *testing.T) {
	c := testCodec()
	hb := Envelope{Kind: KindHeartbeat, Global: 55, RaisedAt: 120}
	runs := map[string][]Envelope{
		"sample":          sampleEnvelopes(),
		"lone heartbeat":  {hb},
		"heartbeats only": {hb, {Kind: KindHeartbeat, Global: -3, RaisedAt: -25}, hb},
	}
	// One-, two- and three-byte length prefixes, on both sides of each
	// boundary, alone and between heartbeats.
	for _, n := range []int{127, 128, 16383, 16384} {
		env := envelopeOfSize(t, c, n)
		runs[fmt.Sprintf("event of %d", n)] = []Envelope{env}
		runs[fmt.Sprintf("event of %d between heartbeats", n)] = []Envelope{hb, env, hb, env}
	}
	for name, envs := range runs {
		want := twoPassBatch(t, c, envs)
		got, err := c.AppendBatch(nil, envs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: one-pass frame (%d bytes) differs from the two-pass one (%d bytes)", name, len(got), len(want))
		}
		prefix := []byte{0xde, 0xad}
		got, err = c.AppendBatch(prefix, envs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Errorf("%s: appending behind a prefix changed the frame", name)
		}
	}
}

// fillLength against the plain framing for raw members of every boundary
// size, the one-byte member no envelope can be included.
func TestFillLengthBoundaries(t *testing.T) {
	sizes := []int{1, 127, 128, 16383, 16384}
	var members [][]byte
	for i, n := range sizes {
		members = append(members, bytes.Repeat([]byte{byte('a' + i)}, n))
	}
	got := []byte{KindBatch, byte(len(members))}
	for _, m := range members {
		slot := len(got)
		got = append(append(got, 0), m...)
		got = fillLength(got, slot)
	}
	if want := frameBatch(members...); !bytes.Equal(got, want) {
		t.Fatalf("fillLength framing (%d bytes) differs from AppendUvarint framing (%d bytes)", len(got), len(want))
	}
}

// loneFrontiers are the (global, at) pairs the frontier tests encode: the
// steady state, negative instants and wide varints.
var loneFrontiers = [][2]int64{
	{0, 0}, {4, 49}, {55, 120}, {-3, -25}, {7, -1}, {1 << 40, 1 << 43}, {-(1 << 50), 1 << 20}, {1 << 62, -(1 << 62)},
}

func TestAppendFrontierMatchesAppendBatch(t *testing.T) {
	c := testCodec()
	for _, f := range loneFrontiers {
		want, err := c.AppendBatch(nil, []Envelope{{Kind: KindHeartbeat, Global: f[0], RaisedAt: f[1]}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.AppendFrontier([]byte{0xde, 0xad}, f[0], f[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[2:], want) || got[0] != 0xde || got[1] != 0xad {
			t.Errorf("frontier %v: AppendFrontier = %x, AppendBatch = %x", f, got[2:], want)
		}
		g, at, ok := c.DecodeFrontier(want)
		if !ok || g != f[0] || at != f[1] {
			t.Errorf("frontier %v: DecodeFrontier = (%d, %d, %v)", f, g, at, ok)
		}
	}
}

// frontierDisagreement holds DecodeFrontier to DecodeBatch on one input:
// a frame it takes must be one DecodeBatch reads as exactly that lone
// heartbeat.  It returns a description of the first difference, or "".
func frontierDisagreement(c *Codec, buf []byte) string {
	g, at, ok := c.DecodeFrontier(buf)
	if !ok {
		return ""
	}
	var envs []Envelope
	err := c.DecodeBatch(buf, func(e Envelope) error { envs = append(envs, e); return nil })
	if err != nil {
		return fmt.Sprintf("DecodeFrontier took %x, DecodeBatch rejects it: %v", buf, err)
	}
	if len(envs) != 1 || envs[0] != (Envelope{Kind: KindHeartbeat, Global: g, RaisedAt: at}) {
		return fmt.Sprintf("DecodeFrontier read %x as (%d, %d), DecodeBatch as %+v", buf, g, at, envs)
	}
	return ""
}

// isLoneFrontier is DecodeBatch's verdict on whether buf is a valid batch
// of exactly one heartbeat.
func isLoneFrontier(c *Codec, buf []byte) bool {
	n, hb := 0, false
	err := c.DecodeBatch(buf, func(e Envelope) error { n++; hb = e.Kind == KindHeartbeat; return nil })
	return err == nil && n == 1 && hb
}

// On valid lone-frontier frames, every truncation and every single-byte
// corruption of them, DecodeFrontier and DecodeBatch agree on accept or
// reject and on the value; so they do wherever DecodeFrontier accepts
// across the fuzz corpus.
func TestDecodeFrontierAgreesWithDecodeBatch(t *testing.T) {
	c := testCodec()
	check := func(what string, buf []byte) {
		t.Helper()
		if msg := frontierDisagreement(c, buf); msg != "" {
			t.Errorf("%s: %s", what, msg)
		}
		_, _, ok := c.DecodeFrontier(buf)
		if want := isLoneFrontier(c, buf); ok != want {
			t.Errorf("%s: DecodeFrontier(%x) ok = %v, DecodeBatch says lone frontier = %v", what, buf, ok, want)
		}
	}
	accepted := 0
	for _, f := range loneFrontiers {
		valid, err := c.AppendFrontier(nil, f[0], f[1])
		if err != nil {
			t.Fatal(err)
		}
		check("valid", valid)
		for cut := 0; cut < len(valid); cut++ {
			check("truncation", valid[:cut])
			if _, _, ok := c.DecodeFrontier(valid[:cut]); ok {
				t.Errorf("truncation of %x at %d accepted", valid, cut)
			}
		}
		check("trailing byte", append(append([]byte{}, valid...), 0))
		for i := range valid {
			for v := 0; v < 256; v++ {
				if byte(v) == valid[i] {
					continue
				}
				corrupt := append([]byte{}, valid...)
				corrupt[i] = byte(v)
				check("corruption", corrupt)
				if _, _, ok := c.DecodeFrontier(corrupt); ok {
					accepted++
				}
			}
		}
	}
	if accepted == 0 {
		t.Error("no corruption was still a valid frame: the value comparison never ran on one")
	}
	for i, s := range fuzzSeeds(t) {
		if msg := frontierDisagreement(fuzzCodec, s); msg != "" {
			t.Errorf("fuzz seed %d: %s", i, msg)
		}
	}
}
