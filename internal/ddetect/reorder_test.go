package ddetect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wire"
)

// frontierArrival is one frontier-only bus message as the reorderer sees
// it.
type frontierArrival struct {
	from   core.Site
	seq    uint64
	global int64
}

// snapshot renders everything a frontier-only arrival can change.
func (r *reorderer) snapshot() string {
	s := fmt.Sprintf("buffered=%d ready=%d minDirty=%v stale=%v", r.buffered, len(r.ready), r.minDirty, r.stale)
	for i, st := range r.sources {
		s += fmt.Sprintf(" [%d next=%d frontier=%d pending=%d]", i, st.nextSeq, st.frontier, st.heldRuns())
	}
	return s
}

// heldRuns counts the runs a source's pending ring holds.
func (st *sourceState) heldRuns() int {
	if st.pending == nil {
		return 0
	}
	n := 0
	for _, run := range st.pending.slots {
		if run != nil {
			n++
		}
	}
	return n
}

// twinReorderers feeds every arrival to two reorderers built the same way
// — one through acceptFrontier, one as the heartbeat envelope (alone via
// accept, or as a one-envelope run via acceptBatch) — and fails on the
// first difference in verdict, error text or state.
type twinReorderers struct {
	t             *testing.T
	lone, general *reorderer
	batch         bool
}

func (tw *twinReorderers) arrive(a frontierArrival) error {
	tw.t.Helper()
	at := a.global * 100
	got := tw.lone.acceptFrontier(a.from, a.seq, a.global, at)
	env := wire.Envelope{Kind: wire.KindHeartbeat, Global: a.global, RaisedAt: at}
	var want error
	if tw.batch {
		want = tw.general.acceptBatch(a.from, a.seq, []wire.Envelope{env})
	} else {
		want = tw.general.accept(a.from, a.seq, env)
	}
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		tw.t.Fatalf("arrival %+v: acceptFrontier says %v, the envelope path %v", a, got, want)
	}
	if g, w := tw.lone.snapshot(), tw.general.snapshot(); g != w {
		tw.t.Fatalf("arrival %+v: state diverged\n frontier %s\n envelope %s", a, g, w)
	}
	return got
}

// watermark recomputes the minimum frontier on both twins, which must
// agree.
func (tw *twinReorderers) watermark() int64 {
	tw.t.Helper()
	got, want := tw.lone.minFrontier(), tw.general.minFrontier()
	if got != want {
		tw.t.Fatalf("watermark %d after acceptFrontier, %d on the envelope path", got, want)
	}
	return got
}

func forBothEnvelopePaths(t *testing.T, build func() *reorderer, run func(t *testing.T, tw *twinReorderers)) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			run(t, &twinReorderers{t: t, lone: build(), general: build(), batch: batch})
		})
	}
}

func abRoster() (*core.Roster, core.Site, core.Site) {
	roster := core.NewRoster([]core.SiteID{"a", "b"})
	return roster, roster.MustSite("a"), roster.MustSite("b")
}

// Seq 2 before seq 1 buffers; seq 1 then drains both in order, and the
// watermark is recomputed once, to the newer frontier.
func TestFrontierOutOfOrderBuffersThenDrains(t *testing.T) {
	roster, a, b := abRoster()
	forBothEnvelopePaths(t, func() *reorderer { return newReorderer(roster) }, func(t *testing.T, tw *twinReorderers) {
		r := tw.lone
		if err := tw.arrive(frontierArrival{b, 1, 50}); err != nil {
			t.Fatal(err)
		}
		if err := tw.arrive(frontierArrival{a, 2, 7}); err != nil {
			t.Fatalf("out-of-order frontier: %v", err)
		}
		if r.buffered != 1 || r.pendingEvents() != 1 || r.sources[a].frontier != math.MinInt64 {
			t.Fatalf("seq 2 alone: %s", r.snapshot())
		}
		if got := tw.watermark(); got != math.MinInt64 {
			t.Fatalf("watermark moved to %d on a buffered frontier", got)
		}
		if err := tw.arrive(frontierArrival{a, 1, 5}); err != nil {
			t.Fatal(err)
		}
		if r.buffered != 0 || r.sources[a].nextSeq != 3 || r.sources[a].frontier != 7 || r.sources[a].heldRuns() != 0 {
			t.Fatalf("after the gap filled: %s", r.snapshot())
		}
		if !r.minDirty {
			t.Fatal("the drained frontiers did not mark the watermark for recomputation")
		}
		if got := tw.watermark(); got != 7 {
			t.Fatalf("watermark = %d, want 7", got)
		}
		if r.minDirty {
			t.Fatal("watermark still dirty after its one recomputation")
		}
	})
}

// A consumed seq, an already-buffered seq and an unknown source are errors,
// the same errors accept and acceptBatch give, and leave no trace.
func TestFrontierRejectsAnomalies(t *testing.T) {
	roster, a, _ := abRoster()
	forBothEnvelopePaths(t, func() *reorderer { return newReorderer(roster) }, func(t *testing.T, tw *twinReorderers) {
		for _, from := range []core.Site{99, core.NoSite} {
			if err := tw.arrive(frontierArrival{from, 1, 1}); err == nil {
				t.Errorf("source %d accepted", from)
			}
		}
		if err := tw.arrive(frontierArrival{a, 1, 1}); err != nil {
			t.Fatal(err)
		}
		if err := tw.arrive(frontierArrival{a, 1, 2}); err == nil {
			t.Error("consumed seq accepted")
		}
		if err := tw.arrive(frontierArrival{a, 3, 3}); err != nil {
			t.Fatalf("gap buffering failed: %v", err)
		}
		if err := tw.arrive(frontierArrival{a, 3, 3}); err == nil {
			t.Error("already-buffered seq accepted")
		}
		if tw.lone.buffered != 1 {
			t.Errorf("buffered = %d after the rejections, want 1", tw.lone.buffered)
		}
	})
}

// A frontier not above the source's current one is consumed — its seq is
// spent — but touches neither the watermark cache nor the stale flag.
func TestFrontierNotAboveCurrentChangesNothing(t *testing.T) {
	roster, a, b := abRoster()
	forBothEnvelopePaths(t, func() *reorderer { return newReorderer(roster) }, func(t *testing.T, tw *twinReorderers) {
		r := tw.lone
		for _, arr := range []frontierArrival{{a, 1, 10}, {b, 1, 12}} {
			if err := tw.arrive(arr); err != nil {
				t.Fatal(err)
			}
		}
		tw.watermark() // clears minDirty
		tw.lone.stale, tw.general.stale = false, false
		for seq, g := range []int64{10, 9, math.MinInt64} {
			if err := tw.arrive(frontierArrival{a, uint64(seq + 2), g}); err != nil {
				t.Fatal(err)
			}
			if r.minDirty || r.stale || r.sources[a].frontier != 10 {
				t.Fatalf("frontier %d after 10: %s", g, r.snapshot())
			}
		}
		if r.sources[a].nextSeq != 5 {
			t.Fatalf("nextSeq = %d, want 5", r.sources[a].nextSeq)
		}
		if err := tw.arrive(frontierArrival{a, 5, 11}); err != nil {
			t.Fatal(err)
		}
		if !r.minDirty || !r.stale {
			t.Fatalf("a frontier above the current one must mark both: %s", r.snapshot())
		}
	})
}

// pendingEvents counts buffered frontier messages with held events, and
// an excluded source's frontiers are consumed without gating anything.
func TestFrontierPendingAccountingAndExclusion(t *testing.T) {
	roster, a, b := abRoster()
	forBothEnvelopePaths(t, func() *reorderer { return newReorderer(roster) }, func(t *testing.T, tw *twinReorderers) {
		r := tw.lone
		occ := event.NewPrimitive("A", event.Explicit, core.DeriveStamp("a", 100, 10), nil)
		for _, re := range []*reorderer{tw.lone, tw.general} {
			if err := re.accept(a, 1, wire.Envelope{Kind: wire.KindEvent, Occ: occ}); err != nil {
				t.Fatal(err)
			}
		}
		for i, arr := range []frontierArrival{{a, 4, 14}, {a, 3, 13}, {b, 2, 20}} {
			if err := tw.arrive(arr); err != nil {
				t.Fatal(err)
			}
			if got, want := r.pendingEvents(), 1+i+1; got != want {
				t.Fatalf("pendingEvents = %d after %d buffered frontiers, want %d", got, i+1, want)
			}
		}
		// b never delivers seq 1; excluding it stops its silence from
		// gating, and a's filled gap releases the event.
		for _, re := range []*reorderer{tw.lone, tw.general} {
			re.exclude(b)
		}
		if err := tw.arrive(frontierArrival{a, 2, 12}); err != nil {
			t.Fatal(err)
		}
		if r.pendingEvents() != 2 { // the held event and b's buffered frontier
			t.Fatalf("pendingEvents = %d, want 2: %s", r.pendingEvents(), r.snapshot())
		}
		if got := tw.watermark(); got != 14 {
			t.Fatalf("watermark = %d with b excluded, want a's 14", got)
		}
		for _, re := range []*reorderer{tw.lone, tw.general} {
			if n := len(re.releaseInto(ReleaseTotalOrder, nil)); n != 1 {
				t.Fatalf("released %d, want 1", n)
			}
		}
		// The excluded source's stream still restores its order.
		if err := tw.arrive(frontierArrival{b, 1, 19}); err != nil {
			t.Fatal(err)
		}
		if r.buffered != 0 || r.sources[b].frontier != 20 || tw.watermark() != 14 {
			t.Fatalf("after the excluded source's gap filled: %s", r.snapshot())
		}
	})
}

// A self-only reorderer hears no frontier but its own.
func TestFrontierSelfOnlyRejectsForeignSender(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b", "c"})
	self := roster.MustSite("b")
	forBothEnvelopePaths(t, func() *reorderer { return newSelfReorderer(roster, self) }, func(t *testing.T, tw *twinReorderers) {
		if err := tw.arrive(frontierArrival{roster.MustSite("a"), 1, 1}); err == nil {
			t.Error("foreign frontier accepted by a self-only reorderer")
		}
		if err := tw.arrive(frontierArrival{self, 1, 4}); err != nil {
			t.Fatal(err)
		}
		if got := tw.watermark(); got != 4 {
			t.Fatalf("watermark = %d, want the site's own 4", got)
		}
	})
}

// ringMsg is one bus message of the ring property test: a run of
// envelopes (acceptBatch), a lone heartbeat (acceptFrontier) or a single
// envelope (accept).
type ringMsg struct {
	kind int // msgRun, msgFrontier or msgSingle
	envs []wire.Envelope
}

const (
	msgRun = iota
	msgFrontier
	msgSingle
)

// ringModel is the map the pending ring replaced, written out as the
// specification: per source the next sequence number, the early messages
// by sequence number and the frontier, plus every event in ingest order.
type ringModel struct {
	roster   *core.Roster
	next     []uint64
	pending  []map[uint64]ringMsg
	frontier []int64
	buffered int
	ingested []*event.Occurrence
}

func newRingModel(roster *core.Roster) *ringModel {
	m := &ringModel{roster: roster}
	for i := 0; i < roster.Len(); i++ {
		m.next = append(m.next, 1)
		m.pending = append(m.pending, map[uint64]ringMsg{})
		m.frontier = append(m.frontier, math.MinInt64)
	}
	return m
}

// arrive applies one arrival and returns the error text the reorderer
// must give, or "".
func (m *ringModel) arrive(from core.Site, seq uint64, msg ringMsg) string {
	id := m.roster.ID(from)
	if seq < m.next[from] {
		return fmt.Sprintf("ddetect: duplicate seq %d from %q (next %d)", seq, id, m.next[from])
	}
	if _, dup := m.pending[from][seq]; dup {
		return fmt.Sprintf("ddetect: duplicate buffered seq %d from %q", seq, id)
	}
	m.pending[from][seq] = msg
	m.buffered += len(msg.envs)
	for {
		next, ok := m.pending[from][m.next[from]]
		if !ok {
			return ""
		}
		delete(m.pending[from], m.next[from])
		m.next[from]++
		m.buffered -= len(next.envs)
		for _, env := range next.envs {
			g := env.Global
			if env.Kind == wire.KindEvent {
				g = env.Occ.Stamp.MaxGlobal()
				m.ingested = append(m.ingested, env.Occ)
			}
			if g > m.frontier[from] {
				m.frontier[from] = g
			}
		}
	}
}

// deliver hands msg to the reorderer the way its kind travels.
func deliver(r *reorderer, from core.Site, seq uint64, msg ringMsg) error {
	switch msg.kind {
	case msgFrontier:
		env := msg.envs[0]
		return r.acceptFrontier(from, seq, env.Global, env.RaisedAt)
	case msgSingle:
		return r.accept(from, seq, msg.envs[0])
	default:
		return r.acceptBatch(from, seq, msg.envs)
	}
}

// linkMessages draws one source's n messages in emission order: event
// runs, lone frontiers and single envelopes, globals rising.
func linkMessages(rng *rand.Rand, id core.SiteID, n int) []ringMsg {
	msgs := make([]ringMsg, n)
	local := int64(0)
	envelope := func() wire.Envelope {
		local += 10 + rng.Int63n(30)
		if rng.Intn(2) == 0 {
			return wire.Envelope{Kind: wire.KindHeartbeat, Global: local / 10, RaisedAt: local}
		}
		occ := event.NewPrimitive("A", event.Explicit, core.DeriveStamp(id, local, 10), nil)
		return wire.Envelope{Kind: wire.KindEvent, Occ: occ, RaisedAt: local}
	}
	for i := range msgs {
		switch kind := rng.Intn(3); kind {
		case msgFrontier:
			local += 10 + rng.Int63n(30)
			msgs[i] = ringMsg{kind, []wire.Envelope{{Kind: wire.KindHeartbeat, Global: local / 10, RaisedAt: local}}}
		case msgSingle:
			msgs[i] = ringMsg{kind, []wire.Envelope{envelope()}}
		default:
			run := make([]wire.Envelope, 1+rng.Intn(4))
			for j := range run {
				run[j] = envelope()
			}
			msgs[i] = ringMsg{kind, run}
		}
	}
	return msgs
}

// arrivalOrder permutes one link's sequence numbers 1..n: swaps between
// neighbours, and a few messages held back by at least three times the
// ring's initial capacity (one of them seq 1, so the ring must grow).
func arrivalOrder(rng *rand.Rand, n int) []uint64 {
	order := make([]uint64, n)
	for i := range order {
		order[i] = uint64(i + 1)
	}
	for i := 0; i+1 < n; i++ {
		if rng.Intn(3) == 0 {
			order[i], order[i+1] = order[i+1], order[i]
		}
	}
	hold := func(i int) {
		gap := 3*ringInit + rng.Intn(2*ringInit)
		if i+gap >= n {
			gap = n - 1 - i
		}
		seq := order[i]
		copy(order[i:], order[i+1:i+gap+1])
		order[i+gap] = seq
	}
	hold(0)
	for k := 0; k < 3; k++ {
		hold(rng.Intn(n / 2))
	}
	return order
}

// TestReorderRingMatchesModel drives the pending ring with random
// per-link arrival permutations — event runs, lone frontiers and single
// envelopes, gaps past three times the ring's first capacity — against
// the map it replaced: after every arrival the frontiers, next
// sequence numbers and pendingEvents agree; a consumed or an
// already-buffered sequence number gets the map's error, word for word,
// and changes nothing; and the events are ingested in each link's
// emission order.
func TestReorderRingMatchesModel(t *testing.T) {
	roster := core.NewRoster([]core.SiteID{"a", "b", "c"})
	const perLink = 150
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, m := newReorderer(roster), newRingModel(roster)
		msgs := make([][]ringMsg, roster.Len())
		orders := make([][]uint64, roster.Len())
		for i := range msgs {
			msgs[i] = linkMessages(rng, roster.ID(core.Site(i)), perLink)
			orders[i] = arrivalOrder(rng, perLink)
		}
		check := func(what string) {
			t.Helper()
			if got, want := r.pendingEvents(), m.buffered+len(m.ingested); got != want {
				t.Fatalf("seed %d, %s: pendingEvents = %d, model %d", seed, what, got, want)
			}
			for i := range r.sources {
				st := &r.sources[i]
				if st.nextSeq != m.next[i] || st.frontier != m.frontier[i] || st.heldRuns() != len(m.pending[i]) {
					t.Fatalf("seed %d, %s: source %d next=%d frontier=%d held=%d, model %d %d %d", seed, what, i,
						st.nextSeq, st.frontier, st.heldRuns(), m.next[i], m.frontier[i], len(m.pending[i]))
				}
			}
		}
		for left := roster.Len() * perLink; left > 0; left-- {
			i := rng.Intn(roster.Len())
			for len(orders[i]) == 0 {
				i = (i + 1) % roster.Len()
			}
			from, seq := core.Site(i), orders[i][0]
			orders[i] = orders[i][1:]
			msg := msgs[i][seq-1]
			if want := m.arrive(from, seq, msg); want != "" {
				t.Fatalf("seed %d: the model rejected a fresh arrival: %s", seed, want)
			}
			if err := deliver(r, from, seq, msg); err != nil {
				t.Fatalf("seed %d: seq %d from %d: %v", seed, seq, i, err)
			}
			check(fmt.Sprintf("seq %d from %d", seq, i))
			// Replay a sequence number already seen on this link: consumed
			// or still buffered, it must be rejected with the map's text.
			if rng.Intn(4) == 0 {
				dup := 1 + uint64(rng.Int63n(int64(perLink)))
				if seen := dup < m.next[i] || m.pending[i][dup].envs != nil; seen {
					want := m.arrive(from, dup, msgs[i][dup-1])
					err := deliver(r, from, dup, msgs[i][dup-1])
					if err == nil || err.Error() != want {
						t.Fatalf("seed %d: replayed seq %d from %d: got %v, want %s", seed, dup, i, err, want)
					}
					check(fmt.Sprintf("replayed seq %d from %d", dup, i))
				}
			}
		}
		if r.buffered != 0 || len(r.ready) != len(m.ingested) {
			t.Fatalf("seed %d: %d envelopes still buffered, %d events ready, want 0 and %d", seed, r.buffered, len(r.ready), len(m.ingested))
		}
		got := make([]*event.Occurrence, len(r.ready))
		for _, it := range r.ready {
			got[it.key.arrival-1] = it.env.Occ
		}
		for k := range got {
			if got[k] != m.ingested[k] {
				t.Fatalf("seed %d: event %d ingested out of the model's order", seed, k)
			}
		}
	}
}

// TestReorderAllocs pins the out-of-order path at zero allocations once
// warm: a run and a lone frontier buffered ahead of their gap, the gap's
// arrival draining both, and the release that keeps the ready queue
// short.  Drained runs leave their storage on the free list and the ring
// keeps its slots, so the next early arrival reuses both.
func TestReorderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	roster, a, b := abRoster()
	r := newReorderer(roster)
	occ := event.NewPrimitive("A", event.Explicit, core.DeriveStamp("a", 0, 10), nil)
	run := []wire.Envelope{{Kind: wire.KindEvent, Occ: occ}, {Kind: wire.KindEvent, Occ: occ}}
	seqA, seqB, g := uint64(1), uint64(1), int64(0)
	var out []wire.Envelope
	iter := func() {
		g++
		for _, err := range []error{
			r.acceptFrontier(a, seqA+2, g+1, 0),
			r.acceptBatch(a, seqA+1, run),
			r.acceptFrontier(b, seqB+1, g+1, 0),
			r.acceptFrontier(a, seqA, g, 0),
			r.acceptFrontier(b, seqB, g, 0),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		seqA, seqB = seqA+3, seqB+2
		out = r.releaseInto(ReleaseTotalOrder, out[:0])
		if len(out) != len(run) || r.pendingEvents() != 0 {
			t.Fatalf("released %d, %d pending, want %d and 0", len(out), r.pendingEvents(), len(run))
		}
	}
	for i := 0; i < 16; i++ {
		iter()
	}
	if n := testing.AllocsPerRun(200, iter); n != 0 {
		t.Errorf("%v allocs per out-of-order round, want 0", n)
	}
}

// thresholdRelease is the total-order rule the site-ordered one replaced,
// kept as the differential oracle: pop while the top's global is below
// every gating frontier, so that nothing with global ≤ g can still arrive.
func thresholdRelease(r *reorderer, dst []wire.Envelope) []wire.Envelope {
	minF := r.minFrontier()
	if minF == math.MinInt64 {
		return dst
	}
	for len(r.ready) > 0 && r.ready[0].key.global < minF {
		dst = append(dst, r.ready.pop().env)
	}
	return dst
}

// releaseLink draws one source's messages in emission order: event runs
// and lone frontiers whose globals rise by 0 or 1 per message, so several
// sources often share the global an event waits on.  A primitive source
// stamps its own site with a rising local clock; a forwarder's events
// are composites whose max-global component names any site.  Unless the
// link ends silent, its last message is a frontier far past every event.
func releaseLink(rng *rand.Rand, roster *core.Roster, from core.Site, forwards, silent bool, n int) []ringMsg {
	id := roster.ID(from)
	g, local := rng.Int63n(3), int64(0)
	msgs := make([]ringMsg, 0, n+1)
	for len(msgs) < n {
		g += rng.Int63n(2)
		if rng.Intn(3) == 0 {
			msgs = append(msgs, ringMsg{msgFrontier, []wire.Envelope{{Kind: wire.KindHeartbeat, Global: g}}})
			continue
		}
		run := make([]wire.Envelope, 1+rng.Intn(3))
		for j := range run {
			local++
			stamp := core.Stamp{Site: id, Global: g, Local: local}
			occ := event.NewPrimitive("A", event.Explicit, stamp, nil)
			if forwards {
				stamp.Site = roster.ID(core.Site(rng.Intn(roster.Len())))
				occ = event.NewComposite("C", id, event.NewPrimitive("A", event.Explicit, stamp, nil))
			}
			run[j] = wire.Envelope{Kind: wire.KindEvent, Occ: occ}
		}
		msgs = append(msgs, ringMsg{msgRun, run})
	}
	if !silent {
		msgs = append(msgs, ringMsg{msgFrontier, []wire.Envelope{{Kind: wire.KindHeartbeat, Global: math.MaxInt64 / 2}}})
	}
	return msgs
}

// TestSiteOrderedReleaseMatchesThreshold drives the release rule and its
// g + 1 oracle with the same random FIFO schedules over 2–6 sources —
// event runs and frontiers, each link's sequence numbers arriving out of
// order, one source silent and excluded after its last message, and on
// half the schedules one source forwarding composites — calling both
// after every arrival.  The rule must pop exactly the oracle's sequence,
// each event at the oracle's call or an earlier one, and strictly earlier
// on some schedules: a source at the held event's global holds it only
// if it sorts below the event's site, forwards composites, or is the site
// a forwarded composite is keyed by.
func TestSiteOrderedReleaseMatchesThreshold(t *testing.T) {
	earlier, total := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		ids := make([]core.SiteID, n)
		for i := range ids {
			ids[i] = core.SiteID(fmt.Sprintf("s%d", i))
		}
		roster := core.NewRoster(ids)
		forwarder, silent := core.NoSite, core.Site(rng.Intn(n))
		if rng.Intn(2) == 0 {
			forwarder = core.Site(rng.Intn(n))
		}
		rule, oracle := newReorderer(roster), newReorderer(roster)
		if forwarder != core.NoSite {
			rule.forwarding(forwarder)
			oracle.forwarding(forwarder)
		}
		links := make([][]ringMsg, n)
		orders := make([][]uint64, n)
		arrivals := 0
		for i := range links {
			from := core.Site(i)
			links[i] = releaseLink(rng, roster, from, from == forwarder, from == silent, 20+rng.Intn(30))
			arrivals += len(links[i])
			orders[i] = make([]uint64, len(links[i]))
			for k := range orders[i] {
				orders[i][k] = uint64(k + 1)
			}
			for k := 0; k+1 < len(orders[i]); k++ {
				if rng.Intn(3) == 0 {
					orders[i][k], orders[i][k+1] = orders[i][k+1], orders[i][k]
				}
			}
		}
		ruleCall := map[*event.Occurrence]int{}
		var ruleSeq, oracleSeq []*event.Occurrence
		var out []wire.Envelope
		for call := 0; call < arrivals; call++ {
			i := rng.Intn(n)
			for len(orders[i]) == 0 {
				i = (i + 1) % n
			}
			from, seq := core.Site(i), orders[i][0]
			orders[i] = orders[i][1:]
			for _, r := range []*reorderer{rule, oracle} {
				if err := deliver(r, from, seq, links[i][seq-1]); err != nil {
					t.Fatalf("seed %d: seq %d from %d: %v", seed, seq, i, err)
				}
				if from == silent && len(orders[i]) == 0 {
					r.exclude(from)
				}
			}
			out = rule.releaseInto(ReleaseTotalOrder, out[:0])
			for _, env := range out {
				ruleCall[env.Occ] = call
				ruleSeq = append(ruleSeq, env.Occ)
			}
			out = thresholdRelease(oracle, out[:0])
			for _, env := range out {
				k := len(oracleSeq)
				oracleSeq = append(oracleSeq, env.Occ)
				if k >= len(ruleSeq) || ruleSeq[k] != env.Occ {
					t.Fatalf("seed %d, call %d: the oracle's release %d is not the rule's, or comes first", seed, call, k)
				}
				if ruleCall[env.Occ] < call {
					earlier++
				}
			}
		}
		if len(ruleSeq) != len(oracleSeq) || rule.pendingEvents() != 0 || oracle.pendingEvents() != 0 {
			t.Fatalf("seed %d: rule released %d, oracle %d; %d and %d still pending",
				seed, len(ruleSeq), len(oracleSeq), rule.pendingEvents(), oracle.pendingEvents())
		}
		total += len(ruleSeq)
	}
	t.Logf("%d of %d events released at an earlier call than the oracle's", earlier, total)
	if earlier == 0 {
		t.Fatal("the rule never released before the oracle; the comparison is vacuous")
	}
}
