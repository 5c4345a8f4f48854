package main

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ddetect"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/wire"
	"repro/internal/workload"
)

// shape is what a traced run observed about its workload; the probes call
// each layer's public functions directly on inputs of this shape.
type shape struct {
	sp          spec
	seed        int64
	sched       *schedule
	setSizes    []uint64 // |T(e)| histogram of published detections
	hbShare     float64  // heartbeats ÷ envelopes on the bus
	envsPerMsg  int
	msgsPerStep int
}

// probeBatch is the number of operations timed together; a probe's value
// is the median over batches, so a stall of the box spoils one batch only.
const probeBatch = 256

// timeProbe calls batch (which performs ops operations) until minNs have
// passed and returns the median nanoseconds per operation.  setup, when
// non-nil, runs untimed before every batch.
func timeProbe(minNs int64, ops int, setup, batch func()) float64 {
	var per []float64
	for start := wallNow(); wallNow()-start < minNs || len(per) < 3; {
		if setup != nil {
			setup()
		}
		t0 := wallNow()
		batch()
		per = append(per, float64(wallNow()-t0)/float64(ops))
	}
	return median(per)
}

// runProbes returns the probe metrics by name, in nanoseconds per
// operation.
func runProbes(sh shape, minNs int64) (map[string]float64, error) {
	out := map[string]float64{}
	ids := workload.SiteIDs(sh.sp.sites)
	roster := core.NewRoster(ids)
	granule := clock.PaperConfig().GlobalGranularity
	ratio := int64(granule / clock.PaperConfig().LocalGranularity)
	rng := rand.New(rand.NewSource(workload.SubSeed(sh.seed, "probes")))

	// core: Max and Less over pairs of valid set stamps whose sizes follow
	// the observed histogram, in both representations.
	drawSize := sizeSampler(sh.setSizes, rng)
	genSet := func(global int64) core.SetStamp {
		k := min(drawSize(), len(ids))
		stamps := make([]core.Stamp, 0, k)
		for _, s := range rng.Perm(len(ids))[:k] {
			// Same global tick at distinct sites: mutually concurrent.
			stamps = append(stamps, core.Stamp{Site: ids[s], Global: global, Local: global*ratio + rng.Int63n(ratio)})
		}
		return core.NewSetStamp(stamps...)
	}
	var sa, sb [probeBatch]core.SetStamp
	var ra, rb [probeBatch]core.RSetStamp
	for i := range sa {
		g := 10 + rng.Int63n(1000)
		sa[i], sb[i] = genSet(g), genSet(g+rng.Int63n(3))
		ra[i], _ = roster.AppendCanon(nil, sa[i])
		rb[i], _ = roster.AppendCanon(nil, sb[i])
	}
	var rdst core.RSetStamp
	var sdst core.SetStamp
	hits := 0
	out["core.probe.rmax_ns"] = timeProbe(minNs, probeBatch, nil, func() {
		for i := range ra {
			rdst = core.RMaxInto(rdst, ra[i], rb[i])
		}
	})
	out["core.probe.rless_ns"] = timeProbe(minNs, probeBatch, nil, func() {
		for i := range ra {
			if ra[i].Less(rb[i]) {
				hits++
			}
		}
	})
	out["core.probe.max_ns"] = timeProbe(minNs, probeBatch, nil, func() {
		for i := range sa {
			sdst = core.MaxInto(sdst, sa[i], sb[i])
		}
	})
	out["core.probe.less_ns"] = timeProbe(minNs, probeBatch, nil, func() {
		for i := range sa {
			if sa[i].Less(sb[i]) {
				hits++
			}
		}
	})
	probeSink += hits + len(rdst) + len(sdst)

	// event and wire share a registry and a pool, as one sealed system does.
	reg := event.NewRegistry()
	for _, t := range sh.sp.types {
		reg.MustDeclare(t, event.Explicit)
	}
	pool := event.NewPool(roster)
	// raised builds what Site.Raise builds for typ at site at reference
	// instant at (clock offsets aside).
	raised := func(typ string, site int, at int64) *event.Occurrence {
		o := pool.GetPrimitive(typ, event.Explicit,
			core.Stamp{Site: ids[site], Global: at / int64(granule), Local: at * ratio / int64(granule)},
			core.Site(site), nil)
		o.TypeID = reg.TypeID(typ)
		return o
	}
	primitive := func(i int) *event.Occurrence {
		return raised(sh.sp.types[rng.Intn(len(sh.sp.types))], rng.Intn(len(ids)), int64(i+1)*int64(max(sh.sp.gap, 1)))
	}
	out["event.probe.pool_cycle_ns"] = timeProbe(minNs, probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			primitive(i).Release()
		}
	})

	// wire: one frame of envsPerMsg envelopes in the observed
	// event : heartbeat mix, through the sealed system's codec.
	codec := &wire.Codec{Roster: roster, Granule: int64(granule), Types: reg}
	envs := make([]wire.Envelope, max(sh.envsPerMsg, 1))
	for i := range envs {
		at := int64(1000 + i)
		if rng.Float64() < sh.hbShare {
			envs[i] = wire.Envelope{Kind: wire.KindHeartbeat, Global: at / int64(granule), RaisedAt: at}
		} else {
			envs[i] = wire.Envelope{Kind: wire.KindEvent, Occ: primitive(i), RaisedAt: at}
		}
	}
	frame, err := codec.AppendBatch(nil, envs)
	if err != nil {
		return nil, fmt.Errorf("wire probe: %w", err)
	}
	const framesPerBatch = 16
	out["wire.probe.encode_ns_per_env"] = timeProbe(minNs, framesPerBatch*len(envs), nil, func() {
		for i := 0; i < framesPerBatch; i++ {
			frame, _ = codec.AppendBatch(frame[:0], envs)
		}
	})
	decoded := 0
	count := func(wire.Envelope) error { decoded++; return nil }
	out["wire.probe.decode_ns_per_env"] = timeProbe(minNs, framesPerBatch*len(envs), nil, func() {
		for i := 0; i < framesPerBatch; i++ {
			_ = codec.DecodeBatch(frame, count)
		}
	})
	probeSink += decoded

	// network: a Step's worth of messages fanned in to the host, then
	// drained once everything is due, on the workload's link model.
	netCfg := sh.sp.net
	netCfg.Seed = workload.SubSeed(sh.seed, "probe.net")
	bus := network.NewBus(netCfg)
	bus.SetRoster(roster)
	msgs := max(sh.msgsPerStep, 1) * 16
	now := clock.Microticks(0)
	send := func() {
		now += stepSize
		for m := 0; m < msgs; m++ {
			// Every workload has at least two sites.
			bus.SendBatchSite(now, core.Site(1+m%(len(ids)-1)), 0, nil, max(sh.envsPerMsg, 1), 0)
		}
	}
	var drained []network.Message
	drain := func() { drained = bus.DrainDue(now+1_000_000, drained[:0]) }
	out["network.probe.send_ns_per_msg"] = timeProbe(minNs, msgs, drain, send)
	out["network.probe.drain_ns_per_msg"] = timeProbe(minNs, msgs, send, drain)
	drain()

	// detector: the host's definitions in a stand-alone detector, fed a
	// time-ordered stream of the primitives they reference.
	det := detector.New(ids[0], reg, nil)
	det.UsePool(pool)
	hostTypes := map[string]bool{}
	for _, d := range sh.sp.defs() {
		if d.host != 0 {
			continue
		}
		if _, err := det.DefineString(d.name, d.expr, detector.Chronicle); err != nil {
			return nil, fmt.Errorf("detector probe: %w", err)
		}
		root, err := expr.Parse(d.expr)
		if err != nil {
			return nil, err
		}
		for _, p := range expr.Primitives(root) {
			hostTypes[p] = true
		}
	}
	// The stream is the run's own schedule, reduced to what the host is
	// sent and repeated (shifted in time) as often as the probe needs.
	var batch [probeBatch]*event.Occurrence
	next, lap := 0, int64(0)
	fill := func() {
		for i := range batch {
			var it item
			for {
				if next == sh.sched.n {
					next, lap = 0, lap+int64(sh.sched.at(sh.sched.n-1).at)+int64(granule)
				}
				it = sh.sched.at(next)
				next++
				if hostTypes[sh.sp.types[it.typ]] {
					break
				}
			}
			batch[i] = raised(sh.sp.types[it.typ], int(it.site), lap+int64(it.at))
		}
	}
	out["detector.probe.publish_ns_per_occ"] = timeProbe(minNs, probeBatch, fill, func() {
		for _, o := range batch {
			det.Publish(o)
			o.Release()
		}
	})

	// clock: stamping a raise, through a sealed system's sites.
	in, err := build(sh.sp, sh.seed, ddetect.Config{}, false, func(int, *event.Occurrence) {})
	if err != nil {
		return nil, err
	}
	in.sys.Step(stepSize)
	var stamp core.Stamp
	out["clock.probe.stamp_ns"] = timeProbe(minNs, probeBatch, nil, func() {
		for i := 0; i < probeBatch; i++ {
			stamp = in.sites[i%len(in.sites)].StampNow()
		}
	})
	probeSink += int(stamp.Local)
	return out, nil
}

var probeSink int

// sizeSampler draws set sizes with the observed frequencies (size 1 when
// nothing was observed).
func sizeSampler(hist []uint64, rng *rand.Rand) func() int {
	var total uint64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return func() int { return 1 }
	}
	return func() int {
		x := uint64(rng.Int63n(int64(total)))
		for size, c := range hist {
			if x < c {
				return max(size, 1)
			}
			x -= c
		}
		return 1
	}
}
