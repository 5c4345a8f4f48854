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
	"repro/internal/workload"
)

// stepSize is the crank granularity of the closed loop: Run(item.At, 100)
// before every raise, as cmd/distsim drives the system.
const stepSize clock.Microticks = 100

// definition is one composite event of a workload, hosted at sites[host].
type definition struct {
	name, expr string
	host       int
}

// spec is one named workload.  events is the schedule length, sized on the
// 2-core reference box to about five seconds per timed run; stride samples
// every stride-th detection for the wall-latency metrics.
type spec struct {
	name, why string
	sites     int
	skew      int64
	net       network.Config
	serialize bool
	events    int
	stride    int
	// slice is the number of consecutive raises timed together; see the
	// events_per_sec definition in README.md.
	slice int
	// gap is the mean inter-arrival time of the Poisson stream; 0 selects
	// the procedural same-instant pair schedule of local_pairs.
	gap   clock.Microticks
	types []string
	defs  func() []definition
}

// deploymentSeed fixes what belongs to the deployment and not to its
// traffic: the sites' clock offsets and drifts and the generated rule set.
// The -seed argument draws the traffic (the event stream and the network's
// jitter schedule); were it to redraw the clocks too, event-time latency
// and with it buffered state would move by tens of percent from seed to
// seed and bury what the benchmark is there to show.
const deploymentSeed = 1999

var fixedTypes = []string{"A", "B", "C", "D"}

func hostedAtZero(pairs ...string) func() []definition {
	return func() []definition {
		var defs []definition
		for i := 0; i+1 < len(pairs); i += 2 {
			defs = append(defs, definition{name: pairs[i], expr: pairs[i+1]})
		}
		return defs
	}
}

// pairsPerInstant is the number of same-instant raises per site per Step in
// local_pairs (the runSustained shape of the root bench_test.go).
const pairsPerInstant = 8

const (
	tenantDefs  = 1000
	tenantTypes = tenantDefs / 8
)

// jittered is the network every multi-site stream workload shares.
var jittered = network.Config{BaseLatency: 20, Jitter: 40, RetransmitDelay: 80}

var workloads = []spec{
	{
		name:  "fanout16",
		why:   "16 sites feeding three pair-and-consume rules at one host: heartbeat-bound, ingest and transport about half of wall, nothing serialized",
		sites: 16, skew: 30, net: jittered, events: 1_000_000, stride: 16, slice: 32, gap: 60,
		types: fixedTypes,
		defs:  hostedAtZero("Seq", "A ; B", "Conj", "C AND D", "Sweep", "A*(A, B, C)"),
	},
	{
		name:  "wide256_wire",
		why:   "same rules over 256 sites with every envelope serialized: membership width, frontier deltas and the codec do the work, detection almost none",
		sites: 256, skew: 30, net: jittered, serialize: true, events: 60_000, stride: 16, slice: 2, gap: 60,
		types: fixedTypes,
		defs:  hostedAtZero("Seq", "A ; B", "Conj", "C AND D", "Sweep", "A*(A, B, C)"),
	},
	{
		name:  "local_pairs",
		why:   "2 sites each detecting their own A ; B on a perfect network: bypasses transport, so raise stamping, the occurrence pool, operator nodes and Max carry the cost",
		sites: 2, events: 9_600_000, stride: 16, slice: 256,
		types: []string{"A00", "B00", "A01", "B01"},
		defs: func() []definition {
			return []definition{{"P00", "A00 ; B00", 0}, {"P01", "A01 ; B01", 1}}
		},
	},
	{
		name:  "tenants1k",
		why:   "1000 generated rules, half sharing subexpressions, hosted round-robin on 8 sites: dispatch width and shared nodes, and the only set-up where compiling rules shows",
		sites: 8, skew: 30, net: jittered, events: 200_000, stride: 16, slice: 8, gap: 60,
		types: workload.TypeNames(tenantTypes),
		defs: func() []definition {
			gen := workload.GenDefs(workload.DefsConfig{
				Count: tenantDefs, Types: workload.TypeNames(tenantTypes), Overlap: 0.5,
				Seed: workload.SubSeed(deploymentSeed, "defs"),
			})
			defs := make([]definition, len(gen))
			for i, d := range gen {
				defs[i] = definition{d.Name, d.Expr, i % 8}
			}
			return defs
		},
	},
	{
		name:  "guard_state",
		why:   "fanout16 topology with NOT, A, A* and ANY rules that keep initiators: long-lived operator state, detect stage nearly all of wall and growing with run length",
		sites: 16, skew: 30, net: jittered, events: 9_000, stride: 1, slice: 32, gap: 60,
		types: fixedTypes,
		defs: hostedAtZero("Guard", "NOT(C)[A, D]", "Window", "A(A, B, C)",
			"Sweep", "A*(A, B, C)", "Any2", "ANY(2, A, B, C)"),
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// item is one scheduled raise in compact form (the 16 M-event schedule of
// local_pairs would not fit as workload.Item).
type item struct {
	at   clock.Microticks
	site int32
	typ  int32
}

// schedule is the generated input of one run: n raises in time order.
type schedule struct {
	n     int
	items []item // nil for the procedural pair schedule
}

func (s *schedule) at(i int) item {
	if s.items != nil {
		return s.items[i]
	}
	// local_pairs: every instant raises pairsPerInstant events at each of
	// the 2 sites, A instants and B instants alternating.
	const perInstant = 2 * pairsPerInstant
	instant, within := i/perInstant, i%perInstant
	site := within / pairsPerInstant
	return item{
		at:   clock.Microticks(instant+1) * stepSize,
		site: int32(site),
		typ:  int32(2*site + instant&1),
	}
}

// genSchedule makes the workload's input from the seed alone: when each
// event is raised and at which site (and, in build, what the network does
// to it).  Which type each event has comes from the deployment seed, like
// the rules that consume the types: a pair-and-consume rule buffers the
// surplus of its initiators over its terminators, a random walk whose
// excursion after a million events differs by tens of percent between type
// sequences, and throughput and retained heap follow it.
func genSchedule(sp spec, seed int64, events int) *schedule {
	if sp.gap == 0 {
		return &schedule{n: events}
	}
	ids := workload.SiteIDs(sp.sites)
	stream := func(seed int64) []workload.Item {
		return workload.GenStream(workload.StreamConfig{
			Sites: ids, Types: sp.types, MeanGap: sp.gap, Count: events,
			Seed: workload.SubSeed(seed, "stream"), Class: event.Explicit, OmitParams: true,
		}).Items
	}
	traffic, kinds := stream(seed), stream(deploymentSeed)
	siteIdx := make(map[core.SiteID]int32, len(ids))
	for i, id := range ids {
		siteIdx[id] = int32(i)
	}
	typIdx := make(map[string]int32, len(sp.types))
	for i, t := range sp.types {
		typIdx[t] = int32(i)
	}
	items := make([]item, events)
	for i := range items {
		items[i] = item{at: traffic[i].At, site: siteIdx[traffic[i].Site], typ: typIdx[kinds[i].Type]}
	}
	return &schedule{n: events, items: items}
}

// instance is one built system with the handles the drive loop indexes.
type instance struct {
	sys      *ddetect.System
	sites    []*ddetect.Site
	types    []string
	defNames []string
	// needers[typ][site] says the site hosts a definition that consumes
	// typ: with the schedule, that predicts Released and Unconsumed.
	needers    [][]bool
	defineTime int64 // wall ns inside DefineAt
}

// build assembles the system: sites, declarations, definitions and one
// subscriber per definition, then seals.  plain selects the reference
// configuration with every optimisation knob off and order checking on.
func build(sp spec, seed int64, cfg ddetect.Config, plain bool, onDetect func(def int, o *event.Occurrence)) (*instance, error) {
	cfg.Net = sp.net
	cfg.Net.Seed = workload.SubSeed(seed, "net")
	cfg.Serialize = sp.serialize
	if plain {
		cfg.DisablePooling, cfg.DisableSharing, cfg.DisableBatching = true, true, true
	}
	sys, err := ddetect.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	in := &instance{sys: sys, types: sp.types}
	rng := rand.New(rand.NewSource(workload.SubSeed(deploymentSeed, "topology")))
	ids := workload.SiteIDs(sp.sites)
	for _, id := range ids {
		var offset, drift int64
		if sp.skew > 0 {
			offset, drift = rng.Int63n(2*sp.skew+1)-sp.skew, rng.Int63n(5)
		}
		s, err := sys.AddSite(id, offset, drift)
		if err != nil {
			return nil, err
		}
		if plain {
			s.Detector().SetOrderChecking(true)
		}
		in.sites = append(in.sites, s)
	}
	typIdx := make(map[string]int, len(sp.types))
	in.needers = make([][]bool, len(sp.types))
	for i, t := range sp.types {
		if err := sys.Declare(t, event.Explicit); err != nil {
			return nil, err
		}
		typIdx[t] = i
		in.needers[i] = make([]bool, sp.sites)
	}
	for d, def := range sp.defs() {
		t0 := wallNow()
		_, err := sys.DefineAt(ids[def.host], def.name, def.expr, detector.Chronicle)
		in.defineTime += wallNow() - t0
		if err != nil {
			return nil, fmt.Errorf("define %s: %w", def.name, err)
		}
		root, err := expr.Parse(def.expr)
		if err != nil {
			return nil, err
		}
		for _, p := range expr.Primitives(root) {
			if t, ok := typIdx[p]; ok {
				in.needers[t][def.host] = true
			}
		}
		d := d
		if err := sys.Subscribe(def.name, func(o *event.Occurrence) { onDetect(d, o) }); err != nil {
			return nil, err
		}
		in.defNames = append(in.defNames, def.name)
	}
	sys.Roster() // seal
	return in, nil
}
