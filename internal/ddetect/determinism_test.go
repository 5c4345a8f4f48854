package ddetect

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// scenarioOpts parameterizes runScenario.  The zero value is invalid; use
// defaultScenario() for the canonical six-site adversarial run.
type scenarioOpts struct {
	sites int   // ≥ 3: the definitions live at the first three sites
	count int   // workload events
	seed  int64 // drives the workload, the network and the site skews
	// step, when set, moves the clock only in whole steps of this size:
	// each raise happens at the last step boundary at or before its instant,
	// so a step of k heartbeat periods queues k heartbeats per link per
	// flush.  Zero runs up to each raise instant in steps of at most 50.
	step   clock.Microticks
	mutate func(*Config)
	// noObs leaves the system completely uninstrumented.  By default
	// runScenario arms a flight-recorder-backed tracer (dumped into the
	// test log on failure); TestObsDeterminism needs a genuinely bare
	// baseline to compare against.
	noObs bool
	// inspect, when set, runs against the settled system before it is
	// discarded (pool-counter assertions and the like).
	inspect func(*System)
}

func defaultScenario() scenarioOpts {
	return scenarioOpts{sites: 6, count: 900, seed: 5}
}

// runScenario drives one seeded adversarial scenario — skewed sites,
// jittery lossy network, definitions at three hosts including a
// hierarchically forwarded composite — and serializes every detection (in
// publish order, with full constituent trees) through internal/eventlog.
// The returned bytes are a total description of the occurrence stream.
func runScenario(t testing.TB, o scenarioOpts) ([]byte, Stats) {
	cfg := Config{
		Net: network.Config{
			BaseLatency: 20, Jitter: 70,
			DropRate: 0.05, RetransmitDelay: 150, Seed: o.seed + 101,
		},
	}
	if o.mutate != nil {
		o.mutate(&cfg)
	}
	if !o.noObs && cfg.Trace == nil {
		attachFlightRecorder(t, &cfg, 48)
	}
	sys := MustNewSystem(cfg)
	rng := rand.New(rand.NewSource(o.seed + 202))
	ids := make([]core.SiteID, o.sites)
	for i := range ids {
		ids[i] = core.SiteID(fmt.Sprintf("s%02d", i))
		sys.MustAddSite(ids[i], rng.Int63n(61)-30, rng.Int63n(4))
	}
	for _, typ := range []string{"A", "B", "C", "D"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	defs := []struct {
		host       core.SiteID
		name, expr string
		ctx        detector.Context
	}{
		{ids[0], "Seq", "A ; B", detector.Chronicle},
		{ids[1], "Conj", "C AND D", detector.Recent},
		{ids[2], "Guard", "NOT(C)[A, D]", detector.Chronicle},
		{ids[2], "Any2", "ANY(2, A, B, C)", detector.Chronicle},
		// Hierarchical: Seq is detected at ids[0] and forwarded to ids[1].
		{ids[1], "Pair", "Seq AND C", detector.Chronicle},
	}
	var buf bytes.Buffer
	log := eventlog.NewWriter(&buf)
	for _, d := range defs {
		if _, err := sys.DefineAt(d.host, d.name, d.expr, d.ctx); err != nil {
			t.Fatal(err)
		}
		if err := sys.Subscribe(d.name, func(o *event.Occurrence) {
			if err := log.Append(o); err != nil {
				t.Errorf("log append: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Seal now to make the pool Strict: a double put anywhere in the
	// scenario — a decoded occurrence released twice included — panics.
	sys.seal()
	if sys.opool != nil {
		sys.opool.Strict = true
	}
	trace := workload.GenStream(workload.StreamConfig{
		Sites: ids, Types: []string{"A", "B", "C", "D"},
		MeanGap: 40, Count: o.count, Seed: o.seed,
	})
	for _, item := range trace.Items {
		if o.step == 0 {
			sys.Run(item.At, 50)
		}
		for o.step > 0 && sys.Now()+o.step <= item.At {
			sys.Step(o.step)
		}
		sys.Site(item.Site).MustRaise(item.Type, event.Explicit, item.Params)
	}
	if err := sys.Settle(50_000); err != nil {
		t.Fatal(err)
	}
	if o.inspect != nil {
		o.inspect(sys)
	}
	return buf.Bytes(), sys.Stats()
}

// runPipelineScenario is the canonical six-site scenario at a given seed
// with a span log attached: the eventlog, the span stream and the stats.
func runPipelineScenario(t testing.TB, seed int64) (log, spans []byte, st Stats) {
	var buf bytes.Buffer
	o := defaultScenario()
	o.seed = seed
	o.mutate = func(c *Config) { c.Trace = obs.NewTracer(obs.NewSpanLog(&buf)) }
	log, st = runScenario(t, o)
	return log, buf.Bytes(), st
}

// perDefDigest is the SHA-256 of an eventlog split by definition: each
// definition's records, byte for byte and in their own publish order,
// with the definitions taken in name order.  It is blind to how the
// detections of different definitions interleave, which moves with the
// release timing; it sees every change to what a definition detects.
func perDefDigest(t testing.TB, log []byte) string {
	parts := map[string][]byte{}
	r := eventlog.NewReader(bytes.NewReader(log))
	for start := int64(0); ; start = r.CleanOffset() {
		o, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("eventlog: %v", err)
		}
		parts[o.Type] = append(parts[o.Type], log[start:r.CleanOffset()]...)
	}
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, name := range names {
		h.Write(binary.AppendUvarint(nil, uint64(len(name))))
		h.Write([]byte(name))
		h.Write(binary.AppendUvarint(nil, uint64(len(parts[name]))))
		h.Write(parts[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pipelineGolden holds the SHA-256 of the eventlog and of the span stream
// runPipelineScenario produces per seed, and the eventlog's per-definition
// digest (perDefDigest).  The log and span digests were last re-recorded
// when total-order release became site-ordered, which moved detections
// earlier and changed how definitions interleave; they change only when
// the engine's observable behaviour does, and whoever changes it
// re-records them on purpose.  The per-definition digests were recorded
// before that change and did not move with it: they change only when
// what some definition detects does.
var pipelineGolden = []struct {
	seed               int64
	detections         uint64
	log, spans, perDef string
}{
	{5, 1311, "75264db540308bc93fbac6e9ead3a62a898c4e7d8a328d77753cc40a120bb4d3", "6bf903d30e763a4be2901d564c8f9e4c2f68193de4e16d46b9e0f7063d0f2de6", "fa9523c255073ac62dc6f7b615faac9431a93d7bdb892c9d890bdb13f5d1dde8"},
	{23, 1309, "bfa1b764e2b8024427a2ee459785f17ae1cc9c5e09216ee06b963fab363ae5b2", "73e74c03c2752c49e94ed2699b3b8d7b4389a17313001488935d385dc44e3ae4", "5ff38386753bedb16fb45a449444e00ea64d29d4acb0f13844f441464989cb88"},
	{41, 1340, "f59bb0830a32f7d1df58e513d4b2000b691ff10e4ecfaf589ac5a9412ee4d5ed", "71318ef165b40d92d299c5ac81270a09c3119f19505a5e5ec6a05c9262991dfd", "13f43dbde8130a81eec12304365b41b237f2020fe84c93a194c3feb226d6df69"},
}

// TestPipelineDeterminism pins the occurrence stream and the span stream
// of the canonical scenario, byte for byte, against recorded digests: the
// stages may be rewritten, but what a seeded history detects — in which
// order, with which stamps and lineage — may not drift.  The
// per-definition digest separates the two: a change that only moves
// detections in time re-records log and spans but not perDef.
func TestPipelineDeterminism(t *testing.T) {
	for _, g := range pipelineGolden {
		log, spans, st := runPipelineScenario(t, g.seed)
		if st.Detections != g.detections {
			t.Errorf("seed=%d: %d detections, recorded %d", g.seed, st.Detections, g.detections)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(log)); got != g.log {
			t.Errorf("seed=%d: eventlog (%d bytes) digest %s, recorded %s", g.seed, len(log), got, g.log)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(spans)); got != g.spans {
			t.Errorf("seed=%d: span stream (%d bytes) digest %s, recorded %s", g.seed, len(spans), got, g.spans)
		}
		if got := perDefDigest(t, log); got != g.perDef {
			t.Errorf("seed=%d: per-definition digest %s, recorded %s", g.seed, got, g.perDef)
		}
	}
}

// TestBatchingDeterminism is the PR-4 transport regression: per-link
// envelope coalescing must be invisible to detection.  Across several
// seeds and site counts, the occurrence log must be byte-identical in all
// four transport modes — batching on/off × serialized/in-memory payloads
// — and the batched bus must actually coalesce (fewer messages than
// envelopes).
func TestBatchingDeterminism(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unbatched", func(c *Config) { c.DisableBatching = true }},
		{"serialized", func(c *Config) { c.Serialize = true }},
		{"serialized-unbatched", func(c *Config) { c.Serialize = true; c.DisableBatching = true }},
	}
	for _, seed := range []int64{5, 23, 41} {
		for _, sites := range []int{3, 6} {
			o := scenarioOpts{sites: sites, count: 250, seed: seed}
			baseLog, baseStats := runScenario(t, o)
			if baseStats.Detections == 0 {
				t.Fatalf("seed=%d sites=%d: no detections; comparison is vacuous", seed, sites)
			}
			if baseStats.Net.Sent >= baseStats.Net.Envelopes {
				t.Errorf("seed=%d sites=%d: bus sent %d messages for %d envelopes — nothing coalesced",
					seed, sites, baseStats.Net.Sent, baseStats.Net.Envelopes)
			}
			if baseStats.Net.Batches == 0 {
				t.Errorf("seed=%d sites=%d: no multi-envelope batches", seed, sites)
			}
			for _, v := range variants {
				vo := o
				vo.mutate = v.mutate
				log, st := runScenario(t, vo)
				if !bytes.Equal(baseLog, log) {
					t.Errorf("seed=%d sites=%d %s: occurrence log (%d bytes) differs from batched in-memory (%d bytes)",
						seed, sites, v.name, len(log), len(baseLog))
				}
				if st.Detections != baseStats.Detections || st.Released != baseStats.Released {
					t.Errorf("seed=%d sites=%d %s: det=%d rel=%d, want det=%d rel=%d",
						seed, sites, v.name, st.Detections, st.Released,
						baseStats.Detections, baseStats.Released)
				}
			}
		}
	}
}

// TestPoolingDeterminism is the PR-8 lifecycle regression: recycling
// occurrences through the generation-checked pool must be invisible to
// detection.  Across seeds × site counts, the occurrence log must be
// byte-identical with pooling on and off (Config.DisablePooling is the
// differential mode), and the pooled runs must actually recycle — puts
// close to gets — or the comparison would be vacuous.  The scenarios run
// uninstrumented (noObs) so this matrix pins pooling in isolation;
// TestTracerComposesWithPooling and TestObsDeterminism cover the
// pooled-while-traced combination.
func TestPoolingDeterminism(t *testing.T) {
	for _, seed := range []int64{5, 31} {
		for _, sites := range []int{3, 6} {
			var pooled event.PoolStats
			o := scenarioOpts{
				sites: sites, count: 250, seed: seed, noObs: true,
				inspect: func(sys *System) { pooled = sys.PoolStats() },
			}
			baseLog, baseStats := runScenario(t, o)
			if baseStats.Detections == 0 {
				t.Fatalf("seed=%d sites=%d: no detections; comparison is vacuous", seed, sites)
			}
			if pooled.Gets == 0 {
				t.Fatalf("seed=%d sites=%d: pool never used; comparison is vacuous", seed, sites)
			}
			// Everything but the per-definition recorder references and
			// any still-buffered partial matches must have been recycled.
			if pooled.Puts == 0 || pooled.Puts < pooled.Gets/2 {
				t.Errorf("seed=%d sites=%d: pool stats %+v — occurrences leak instead of recycling",
					seed, sites, pooled)
			}
			if pooled.DoublePuts != 0 {
				t.Errorf("seed=%d sites=%d: %d double releases averted", seed, sites, pooled.DoublePuts)
			}
			var unpooled event.PoolStats
			uo := o
			uo.mutate = func(c *Config) { c.DisablePooling = true }
			uo.inspect = func(sys *System) { unpooled = sys.PoolStats() }
			log, st := runScenario(t, uo)
			if unpooled.Gets != 0 {
				t.Fatalf("seed=%d sites=%d: DisablePooling still drew %d from the pool",
					seed, sites, unpooled.Gets)
			}
			if !bytes.Equal(baseLog, log) {
				t.Errorf("seed=%d sites=%d: occurrence log (%d bytes) differs with pooling off (%d bytes)",
					seed, sites, len(log), len(baseLog))
			}
			if st.Detections != baseStats.Detections || st.Released != baseStats.Released {
				t.Errorf("seed=%d sites=%d: det=%d rel=%d unpooled, want det=%d rel=%d",
					seed, sites, st.Detections, st.Released,
					baseStats.Detections, baseStats.Released)
			}
		}
	}
}

// TestTracerComposesWithPooling pins the PR-10 contract that replaced
// the old seal()-time tracer-disables-pooling interlock: span identity
// is keyed by (pointer, pool generation), so an attached tracer runs
// over the pooled hot path — the pool is actually exercised (Gets > 0,
// recycling close to complete, zero double puts) and the occurrence log
// is byte-identical to an untraced pooled run.  The steady-state hit
// rate is gated by TestSustainedCrankAllocs, traced and untraced: pool
// misses within 5% of gets (sync.Pool misses are GC-timing-dependent, so
// no test can pin the ratio exactly).
func TestTracerComposesWithPooling(t *testing.T) {
	bare := defaultScenario()
	bare.count = 120
	bare.noObs = true
	bareLog, bareStats := runScenario(t, bare)
	if bareStats.Detections == 0 {
		t.Fatal("no detections; comparison is vacuous")
	}

	traced := defaultScenario()
	traced.count = 120
	var ps event.PoolStats
	traced.inspect = func(sys *System) { ps = sys.PoolStats() }
	tracedLog, tracedStats := runScenario(t, traced) // default scenario attaches a flight recorder
	if tracedStats.Detections != bareStats.Detections {
		t.Fatalf("traced run detected %d, untraced %d", tracedStats.Detections, bareStats.Detections)
	}
	if !bytes.Equal(bareLog, tracedLog) {
		t.Fatalf("occurrence log differs with a tracer attached (%d vs %d bytes)", len(tracedLog), len(bareLog))
	}
	if ps.Gets == 0 {
		t.Fatal("traced system never drew from the pool; tracing must compose with pooling")
	}
	if ps.Puts == 0 || ps.Puts < ps.Gets/2 {
		t.Errorf("traced pool stats %+v — occurrences leak instead of recycling", ps)
	}
	if ps.DoublePuts != 0 {
		t.Errorf("%d double releases averted under tracing", ps.DoublePuts)
	}
}

// TestUnbatchedModeReallyUnbatches pins the differential mode's meaning:
// with DisableBatching every envelope is its own bus message.
func TestUnbatchedModeReallyUnbatches(t *testing.T) {
	o := defaultScenario()
	o.count = 120
	o.mutate = func(c *Config) { c.DisableBatching = true }
	_, st := runScenario(t, o)
	if st.Net.Sent != st.Net.Envelopes || st.Net.Batches != 0 {
		t.Fatalf("unbatched mode stats: %+v", st.Net)
	}
}

// TestPipelineDeterminismRepeated re-runs the canonical scenario in one
// process to pin that the streams are reproducible (no map-iteration or
// wall-clock leakage) at a seed the golden table does not cover.
func TestPipelineDeterminismRepeated(t *testing.T) {
	logA, spansA, _ := runPipelineScenario(t, 7)
	logB, spansB, _ := runPipelineScenario(t, 7)
	if !bytes.Equal(logA, logB) || !bytes.Equal(spansA, spansB) {
		t.Fatalf("two runs of the same seed diverge")
	}
}

// TestPipelineStageStats checks the per-stage instrumentation: counters
// flow through Stats and the hook sees every stage of every tick.
func TestPipelineStageStats(t *testing.T) {
	perStage := map[string]int{}
	sys := MustNewSystem(Config{
		Net: network.Config{BaseLatency: 10},
		Pipeline: pipeline.Config{
			OnStage: func(ev pipeline.StageEvent) { perStage[ev.Stage] += ev.Items },
		},
	})
	a := sys.MustAddSite("a", 0, 0)
	sys.MustAddSite("hub", 0, 0)
	for _, typ := range []string{"A", "B"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.MustRaise("A", event.Explicit, nil)
		sys.Run(sys.Now()+300, 50)
		a.MustRaise("B", event.Explicit, nil)
		sys.Run(sys.Now()+300, 50)
	}
	if err := sys.Settle(10_000); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if len(st.Stages) != 5 {
		t.Fatalf("got %d stage stats, want 5", len(st.Stages))
	}
	want := []string{"ingest", "transport", "release", "detect", "publish"}
	for i, name := range want {
		if st.Stages[i].Name != name {
			t.Fatalf("stage %d is %q, want %q", i, st.Stages[i].Name, name)
		}
		if st.Stages[i].Ticks == 0 {
			t.Fatalf("stage %q never ticked", name)
		}
	}
	// Cross-check stage item counts against the system counters.
	if got := uint64(perStage["release"]); got != st.Released {
		t.Fatalf("release stage saw %d items, stats say %d released", got, st.Released)
	}
	if got := uint64(perStage["detect"]); got != st.Released {
		t.Fatalf("detect stage saw %d items, want %d (everything released is detected-on)", got, st.Released)
	}
	if got := uint64(perStage["publish"]); got != st.Detections {
		t.Fatalf("publish stage saw %d items, stats say %d detections", got, st.Detections)
	}
	if st.Detections == 0 {
		t.Fatalf("scenario produced no detections")
	}
	// The detect stage's histogram carries one sample per tick.
	det := st.Stages[3]
	if det.Hist.Total() != det.Ticks {
		t.Fatalf("detect histogram has %d samples over %d ticks", det.Hist.Total(), det.Ticks)
	}
}
