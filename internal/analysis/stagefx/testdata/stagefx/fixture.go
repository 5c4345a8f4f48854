// Package fixture exercises the stagefx analyzer: bus sends outside the
// coalescer flush and bus drains outside the transport stage are flagged;
// linkCoalescer sends and transportStage drains are not.
package fixture

import "repro/internal/network"

type sys struct{ bus *network.Bus }

func (s *sys) detectTick() {
	s.bus.SendBatchSite(0, 0, 1, nil, 1, 0) // want `stagefx: Bus\.SendBatchSite outside the coalescer flush`
}

func (s *sys) drain() {
	_ = s.bus.DrainDue(0, nil) // want `stagefx: Bus\.DrainDue outside the transport stage`
}

type publishStage struct{ sys *sys }

// The publish stage must hand traffic to the coalescer rather than the bus.
func (p *publishStage) Tick() {
	p.sys.bus.SendBatchSite(0, 0, 1, nil, 1, 0) // want `stagefx: Bus\.SendBatchSite outside the coalescer flush`
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
