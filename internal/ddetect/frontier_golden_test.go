package ddetect

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// frontierScenarios are the two histories in which a link's heartbeats do
// not travel one per flush in order: jitter of several heartbeat periods
// with loss, so frontier-only messages overtake each other and the FIFO
// buffer holds them; and a step of ten heartbeat periods, so ten
// heartbeats queue on every link before each flush.
var frontierScenarios = []struct {
	name string
	opts func() scenarioOpts
}{
	{"overtaking", func() scenarioOpts {
		o := scenarioOpts{sites: 6, count: 400, seed: 11}
		o.mutate = func(c *Config) {
			c.Net.Jitter = 350 // 3.5 heartbeat periods
			c.Net.DropRate = 0.1
		}
		return o
	}},
	{"coarse-step", func() scenarioOpts {
		return scenarioOpts{sites: 6, count: 400, seed: 11, step: 1000} // ten heartbeat periods
	}},
}

var transportModes = []struct {
	name   string
	mutate func(*Config)
}{
	{"batched", func(*Config) {}},
	{"unbatched", func(c *Config) { c.DisableBatching = true }},
	{"serialized", func(c *Config) { c.Serialize = true }},
	{"serialized-unbatched", func(c *Config) { c.Serialize = true; c.DisableBatching = true }},
}

// frontierGolden holds, per scenario and transport mode, the SHA-256 of
// the eventlog and of the span stream and the counters that are functions
// of simulated time.  Recorded at commit 52d78ee, the last one whose
// heartbeats travelled as envelopes in a run; they change only when the
// delivery schedule or the engine's observable behaviour does.
var frontierGolden = map[string]struct{ log, spans, stats string }{
	"overtaking/batched": {
		"75c1cb51f2971d067e236a26d5a69977323e522c96cf7c3fa72d1074acb49b9d",
		"4b5065b1c172a36c1182c993a1bcfb00d07c757567e59ba5abfc2045f85f07c2",
		"raised=400 fwd=751 hb=2730 rel=885 det=585 unc=0 latsum=449918 latmax=909 sent=3262 dlv=3224 rtx=345 inflight=65 env=3481 batches=213 bytes=0 raise_to_send=485/11407/100 send_to_recv=482/94706/654 recv_to_release=495/84172/590 raise_to_release_local=0/0/0 release_to_publish=1170/356495/4097",
	},
	"overtaking/unbatched": {
		"75c1cb51f2971d067e236a26d5a69977323e522c96cf7c3fa72d1074acb49b9d",
		"4b5065b1c172a36c1182c993a1bcfb00d07c757567e59ba5abfc2045f85f07c2",
		"raised=400 fwd=751 hb=2730 rel=885 det=585 unc=0 latsum=449918 latmax=909 sent=3481 dlv=3443 rtx=345 inflight=69 env=3481 batches=0 bytes=0 raise_to_send=485/11407/100 send_to_recv=482/94706/654 recv_to_release=495/84172/590 raise_to_release_local=0/0/0 release_to_publish=1170/356495/4097",
	},
	"overtaking/serialized": {
		"75c1cb51f2971d067e236a26d5a69977323e522c96cf7c3fa72d1074acb49b9d",
		"0bf8d2c7136ef6462c7c029a764de907a2cbfdf4bc0fda799866ec73b2d58584",
		"raised=400 fwd=751 hb=2730 rel=885 det=585 unc=0 latsum=449918 latmax=909 sent=3262 dlv=3224 rtx=345 inflight=65 env=3481 batches=213 bytes=39701 raise_to_send=485/11407/100 send_to_recv=0/0/0 recv_to_release=751/184927/733 raise_to_release_local=0/0/0 release_to_publish=1170/374724/4097",
	},
	"overtaking/serialized-unbatched": {
		"75c1cb51f2971d067e236a26d5a69977323e522c96cf7c3fa72d1074acb49b9d",
		"0bf8d2c7136ef6462c7c029a764de907a2cbfdf4bc0fda799866ec73b2d58584",
		"raised=400 fwd=751 hb=2730 rel=885 det=585 unc=0 latsum=449918 latmax=909 sent=3481 dlv=3443 rtx=345 inflight=69 env=3481 batches=0 bytes=29696 raise_to_send=485/11407/100 send_to_recv=0/0/0 recv_to_release=751/184927/733 raise_to_release_local=0/0/0 release_to_publish=1170/374724/4097",
	},
	"coarse-step/batched": {
		"d85d11efc17b0539431048baf8c37c94528ce82a543fdfbd0d790fe9aa5d03ad",
		"1625c0ced4cd2e6d9fa94bd677aee1a056d5e26783fb18292456343aff382451",
		"raised=400 fwd=750 hb=2295 rel=884 det=601 unc=0 latsum=1566700 latmax=2000 sent=285 dlv=270 rtx=10 inflight=31 env=3045 batches=252 bytes=0 raise_to_send=484/382000/1000 send_to_recv=484/437200/1000 recv_to_release=484/300/100 raise_to_release_local=0/0/0 release_to_publish=1202/494600/5000",
	},
	"coarse-step/unbatched": {
		"d85d11efc17b0539431048baf8c37c94528ce82a543fdfbd0d790fe9aa5d03ad",
		"1625c0ced4cd2e6d9fa94bd677aee1a056d5e26783fb18292456343aff382451",
		"raised=400 fwd=750 hb=2295 rel=884 det=601 unc=0 latsum=1566700 latmax=2000 sent=3045 dlv=3030 rtx=10 inflight=416 env=3045 batches=0 bytes=0 raise_to_send=484/382000/1000 send_to_recv=484/437200/1000 recv_to_release=484/300/100 raise_to_release_local=0/0/0 release_to_publish=1202/494600/5000",
	},
	"coarse-step/serialized": {
		"d85d11efc17b0539431048baf8c37c94528ce82a543fdfbd0d790fe9aa5d03ad",
		"f7ae8870782960d8fd5d189b9ac5e48c804c373f59dfdc00e9abb646a15c6dd8",
		"raised=400 fwd=750 hb=2295 rel=884 det=601 unc=0 latsum=1566700 latmax=2000 sent=285 dlv=270 rtx=10 inflight=31 env=3045 batches=252 bytes=30968 raise_to_send=484/382000/1000 send_to_recv=0/0/0 recv_to_release=750/300/100 raise_to_release_local=0/0/0 release_to_publish=1202/494600/5000",
	},
	"coarse-step/serialized-unbatched": {
		"d85d11efc17b0539431048baf8c37c94528ce82a543fdfbd0d790fe9aa5d03ad",
		"f7ae8870782960d8fd5d189b9ac5e48c804c373f59dfdc00e9abb646a15c6dd8",
		"raised=400 fwd=750 hb=2295 rel=884 det=601 unc=0 latsum=1566700 latmax=2000 sent=3045 dlv=3030 rtx=10 inflight=416 env=3045 batches=0 bytes=27353 raise_to_send=484/382000/1000 send_to_recv=0/0/0 recv_to_release=750/300/100 raise_to_release_local=0/0/0 release_to_publish=1202/494600/5000",
	},
}

// statsLine renders the deterministic part of Stats: everything but the
// wall-clock stage histograms.
func statsLine(st Stats) string {
	s := fmt.Sprintf("raised=%d fwd=%d hb=%d rel=%d det=%d unc=%d latsum=%d latmax=%d",
		st.Raised, st.Forwarded, st.Heartbeats, st.Released, st.Detections, st.Unconsumed, st.LatencySum, st.LatencyMax)
	n := st.Net
	s += fmt.Sprintf(" sent=%d dlv=%d rtx=%d inflight=%d env=%d batches=%d bytes=%d",
		n.Sent, n.Delivered, n.Retransmitted, n.MaxInFlight, n.Envelopes, n.Batches, n.PayloadBytes)
	for _, l := range st.Legs {
		s += fmt.Sprintf(" %s=%d/%d/%d", l.Leg, l.Count, l.Sum, l.Max)
	}
	return s
}

// TestFrontierPathGolden pins what the transport does with heartbeats that
// overtake each other or queue up, in all four transport modes: the
// occurrence stream, the span stream, the system counters and the bus
// counters (Sent, Envelopes, Batches, PayloadBytes, Heartbeats among
// them) are what they were when a heartbeat was an envelope like any
// other.
func TestFrontierPathGolden(t *testing.T) {
	for _, sc := range frontierScenarios {
		var firstLog []byte
		for _, mode := range transportModes {
			name := sc.name + "/" + mode.name
			var spans bytes.Buffer
			o := sc.opts()
			scenario := o.mutate
			o.mutate = func(c *Config) {
				if scenario != nil {
					scenario(c)
				}
				mode.mutate(c)
				c.Trace = obs.NewTracer(obs.NewSpanLog(&spans))
			}
			log, st := runScenario(t, o)
			if st.Detections == 0 {
				t.Fatalf("%s: no detections; the golden is vacuous", name)
			}
			if firstLog == nil {
				firstLog = log
			} else if !bytes.Equal(firstLog, log) {
				t.Errorf("%s: occurrence log differs from the batched in-memory run", name)
			}
			want := frontierGolden[name]
			if got := fmt.Sprintf("%x", sha256.Sum256(log)); got != want.log {
				t.Errorf("%s: eventlog (%d bytes) digest %s, recorded %s", name, len(log), got, want.log)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(spans.Bytes())); got != want.spans {
				t.Errorf("%s: span stream (%d bytes) digest %s, recorded %s", name, spans.Len(), got, want.spans)
			}
			if got := statsLine(st); got != want.stats {
				t.Errorf("%s: stats\n got %s\nwant %s", name, got, want.stats)
			}
		}
	}
}
