package ddetect

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
)

// heartbeatFanIn builds the widest heartbeat shape the benchmark suite
// has — sites sites all heartbeating the one sink that hosts a definition,
// over a link model that delivers each frontier within the next period —
// and steps it until every pool and free list has reached its high-water
// mark.
func heartbeatFanIn(tb testing.TB, sites int, serialize bool) *System {
	tb.Helper()
	sys := MustNewSystem(Config{
		Net:       network.Config{BaseLatency: 20, Jitter: 40, Seed: 1},
		Serialize: serialize,
	})
	for i := 0; i < sites; i++ {
		sys.MustAddSite(core.SiteID(fmt.Sprintf("s%03d", i)), 0, 0)
	}
	for _, typ := range []string{"A", "B"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("s000", "AB", "A ; B", detector.Chronicle); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		sys.Step(sys.cfg.HeartbeatEvery)
	}
	return sys
}

// One heartbeat tick — every site's frontier queued, sent, delivered and
// accepted, nothing else on the bus — allocates nothing once warm, in
// memory and serialized alike.
func TestHeartbeatTickZeroAlloc(t *testing.T) {
	const sites = 256
	for _, serialize := range []bool{false, true} {
		sys := heartbeatFanIn(t, sites, serialize)
		before := sys.Stats()
		const ticks = 50
		allocs := testing.AllocsPerRun(ticks, func() { sys.Step(sys.cfg.HeartbeatEvery) })
		after := sys.Stats()
		// AllocsPerRun makes one warm-up call of its own.
		if got, want := after.Heartbeats-before.Heartbeats, uint64((ticks+1)*(sites-1)); got != want {
			t.Fatalf("serialize=%v: %d heartbeats in %d ticks, want %d", serialize, got, ticks+1, want)
		}
		if got := after.Net.Delivered - before.Net.Delivered; got != after.Net.Sent-before.Net.Sent {
			t.Fatalf("serialize=%v: %d delivered of %d sent: the ticks are not steady state", serialize, got, after.Net.Sent-before.Net.Sent)
		}
		if serialize == (after.Net.PayloadBytes == 0) {
			t.Fatalf("serialize=%v with %d payload bytes", serialize, after.Net.PayloadBytes)
		}
		if allocs != 0 {
			t.Errorf("serialize=%v: %v allocs per heartbeat tick, want 0", serialize, allocs)
		}
	}
}

// BenchmarkHeartbeatFanIn times the kernel the system benchmark cannot
// isolate: what one heartbeat costs from the ingest stage's clock read to
// the sink's frontier advance, with nothing else happening.
func BenchmarkHeartbeatFanIn(b *testing.B) {
	const sites = 256
	for _, serialize := range []bool{false, true} {
		b.Run(fmt.Sprintf("serialize=%v", serialize), func(b *testing.B) {
			sys := heartbeatFanIn(b, sites, serialize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Step(sys.cfg.HeartbeatEvery)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(sites-1)), "ns/heartbeat")
		})
	}
}
