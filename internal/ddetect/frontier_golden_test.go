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
// of simulated time.  First recorded at commit 52d78ee, the last one whose
// heartbeats travelled as envelopes in a run, and re-recorded when
// total-order release became site-ordered (earlier releases, so earlier
// forwards and other latencies); they change only when the delivery
// schedule or the engine's observable behaviour does.
var frontierGolden = map[string]struct{ log, spans, stats string }{
	"overtaking/batched": {
		"b1042eb2669e04d4b6d1a89de0f6cef7ea65b56a8e2fe6bf10dda6d286e7a9fb",
		"083c26add773cfde9ae7ebc7747ed3f6b4b8412fad8fbb13af77154ff4be71b1",
		"raised=400 fwd=751 hb=2730 rel=885 det=585 unc=0 latsum=408639 latmax=861 sent=3264 dlv=3226 rtx=346 inflight=65 env=3481 batches=212 bytes=0 raise_to_send=485/11407/100 send_to_recv=478/89714/465 recv_to_release=506/67404/514 raise_to_release_local=0/0/0 release_to_publish=1170/351296/4110",
	},
	"overtaking/unbatched": {
		"b1042eb2669e04d4b6d1a89de0f6cef7ea65b56a8e2fe6bf10dda6d286e7a9fb",
		"083c26add773cfde9ae7ebc7747ed3f6b4b8412fad8fbb13af77154ff4be71b1",
		"raised=400 fwd=751 hb=2730 rel=885 det=585 unc=0 latsum=408639 latmax=861 sent=3481 dlv=3443 rtx=346 inflight=69 env=3481 batches=0 bytes=0 raise_to_send=485/11407/100 send_to_recv=478/89714/465 recv_to_release=506/67404/514 raise_to_release_local=0/0/0 release_to_publish=1170/351296/4110",
	},
	"overtaking/serialized": {
		"b1042eb2669e04d4b6d1a89de0f6cef7ea65b56a8e2fe6bf10dda6d286e7a9fb",
		"c773271559e594825dfef50903c4c74c5e521d3c9742cbb5a6b6ea0932cbfa3b",
		"raised=400 fwd=751 hb=2730 rel=885 det=585 unc=0 latsum=408639 latmax=861 sent=3264 dlv=3226 rtx=346 inflight=65 env=3481 batches=212 bytes=39705 raise_to_send=485/11407/100 send_to_recv=0/0/0 recv_to_release=751/152644/631 raise_to_release_local=0/0/0 release_to_publish=1170/371395/4110",
	},
	"overtaking/serialized-unbatched": {
		"b1042eb2669e04d4b6d1a89de0f6cef7ea65b56a8e2fe6bf10dda6d286e7a9fb",
		"c773271559e594825dfef50903c4c74c5e521d3c9742cbb5a6b6ea0932cbfa3b",
		"raised=400 fwd=751 hb=2730 rel=885 det=585 unc=0 latsum=408639 latmax=861 sent=3481 dlv=3443 rtx=346 inflight=69 env=3481 batches=0 bytes=29696 raise_to_send=485/11407/100 send_to_recv=0/0/0 recv_to_release=751/152644/631 raise_to_release_local=0/0/0 release_to_publish=1170/371395/4110",
	},
	"coarse-step/batched": {
		"0ba0ad8bb0828b37190a754aaece16b8b9eaacb318c51e52e7cbb65990bd66d9",
		"25234142635c8ff53c283969e3aa43dd89f710c4ffbb501820a2d5a172eeb78b",
		"raised=400 fwd=750 hb=2295 rel=884 det=601 unc=0 latsum=1539300 latmax=2000 sent=285 dlv=270 rtx=10 inflight=31 env=3045 batches=252 bytes=0 raise_to_send=484/382000/1000 send_to_recv=453/409800/1000 recv_to_release=484/300/100 raise_to_release_local=0/0/0 release_to_publish=1202/466900/5000",
	},
	"coarse-step/unbatched": {
		"0ba0ad8bb0828b37190a754aaece16b8b9eaacb318c51e52e7cbb65990bd66d9",
		"25234142635c8ff53c283969e3aa43dd89f710c4ffbb501820a2d5a172eeb78b",
		"raised=400 fwd=750 hb=2295 rel=884 det=601 unc=0 latsum=1539300 latmax=2000 sent=3045 dlv=3030 rtx=10 inflight=417 env=3045 batches=0 bytes=0 raise_to_send=484/382000/1000 send_to_recv=453/409800/1000 recv_to_release=484/300/100 raise_to_release_local=0/0/0 release_to_publish=1202/466900/5000",
	},
	"coarse-step/serialized": {
		"0ba0ad8bb0828b37190a754aaece16b8b9eaacb318c51e52e7cbb65990bd66d9",
		"70321d59f9be416e02c461d155136ace138767a6965cb757fd999cc0ba46fbca",
		"raised=400 fwd=750 hb=2295 rel=884 det=601 unc=0 latsum=1539300 latmax=2000 sent=285 dlv=270 rtx=10 inflight=31 env=3045 batches=252 bytes=30966 raise_to_send=484/382000/1000 send_to_recv=0/0/0 recv_to_release=750/300/100 raise_to_release_local=0/0/0 release_to_publish=1202/480900/5000",
	},
	"coarse-step/serialized-unbatched": {
		"0ba0ad8bb0828b37190a754aaece16b8b9eaacb318c51e52e7cbb65990bd66d9",
		"70321d59f9be416e02c461d155136ace138767a6965cb757fd999cc0ba46fbca",
		"raised=400 fwd=750 hb=2295 rel=884 det=601 unc=0 latsum=1539300 latmax=2000 sent=3045 dlv=3030 rtx=10 inflight=417 env=3045 batches=0 bytes=27351 raise_to_send=484/382000/1000 send_to_recv=0/0/0 recv_to_release=750/300/100 raise_to_release_local=0/0/0 release_to_publish=1202/480900/5000",
	},
}

// frontierPerDef is each scenario's per-definition digest (perDefDigest),
// the same in every transport mode: it changes only when what some
// definition detects does.
var frontierPerDef = map[string]string{
	"overtaking":  "15eaee82625beb7cc2b0a7c72e1719d0602ca67ded12ab24681b2fb5fec5cc5d",
	"coarse-step": "b17eab9177980c1482133518d002c92d8d5bfbe582644d4147f9678f56751a58",
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
			if got := perDefDigest(t, log); got != frontierPerDef[sc.name] {
				t.Errorf("%s: per-definition digest %s, recorded %s", name, got, frontierPerDef[sc.name])
			}
			if got := statsLine(st); got != want.stats {
				t.Errorf("%s: stats\n got %s\nwant %s", name, got, want.stats)
			}
		}
	}
}
