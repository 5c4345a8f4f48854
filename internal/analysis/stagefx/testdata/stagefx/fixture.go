// Package fixture exercises the stagefx analyzer: bus sends outside the
// coalescer flush, bus drains outside the transport stage, shared Stats
// writes and handler fan-out outside publish-stage context are flagged;
// linkCoalescer sends, transportStage drains, publishStage effects, local
// Stats snapshots and //lint:allow-ed crank stages are not.
package fixture

import (
	"repro/internal/ddetect"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
)

type sys struct {
	bus   *network.Bus
	stats ddetect.Stats
}

func (s *sys) detectTick(h detector.Handler, o *event.Occurrence) {
	s.bus.SendBatchSite(0, 0, 1, nil, 1, 0) // want `stagefx: Bus\.SendBatchSite outside the coalescer flush`
	s.stats.Raised++                        // want `stagefx: Stats mutation outside the publish stage`
	h(o)                                    // want `stagefx: subscriber fan-out`
}

func (s *sys) drain() {
	_ = s.bus.DrainDue(0, nil) // want `stagefx: Bus\.DrainDue outside the transport stage`
	s.stats.LatencySum = 1     // want `stagefx: Stats mutation outside the publish stage`
}

type publishStage struct{ sys *sys }

// The publish stage may fan out to handlers and count, but since PR 4 it
// must hand traffic to the coalescer rather than the bus.
func (p *publishStage) Tick(h detector.Handler, o *event.Occurrence) {
	p.sys.bus.SendBatchSite(0, 0, 1, nil, 1, 0) // want `stagefx: Bus\.SendBatchSite outside the coalescer flush`
	p.sys.stats.Detections++
	h(o)
}

type linkCoalescer struct{ sys *sys }

// flush is the designated bus sender: both send methods are clean here.
func (c *linkCoalescer) flush() {
	c.sys.bus.SendBatchSite(0, 0, 1, nil, 3, 0)
	c.sys.bus.SendUnbatchedSite(0, 0, 1, 2, func(int) any { return nil })
}

type transportStage struct{ sys *sys }

// Tick is the designated bus consumer: the drain is clean here, but a send
// is not.
func (t *transportStage) Tick() {
	_ = t.sys.bus.DrainDue(0, nil)
	t.sys.bus.SendUnbatchedSite(0, 0, 1, 1, func(int) any { return nil }) // want `stagefx: Bus\.SendUnbatchedSite outside the coalescer flush`
}

// Being the designated sender does not make the coalescer a consumer:
// drains are still transport-only.
func (c *linkCoalescer) refill() {
	_ = c.sys.bus.DrainDue(0, nil) // want `stagefx: Bus\.DrainDue outside the transport stage`
}

// crankStage is serialized on the crank goroutine by construction.
//
//lint:allow stagefx — fixture: crank-stage helper, runs before the detect barrier
func crankStage(s *sys) {
	s.stats.Heartbeats++
}

func snapshot(s *sys) ddetect.Stats {
	st := s.stats
	st.Raised++ // local copy, not shared state
	return st
}
