package detector

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// BenchmarkNotSpoiledState measures what one terminator of Chronicle
// NOT(C)[A, D] costs against `state` retained initiators, every one of
// them spoiled by the C that followed it (spoiled initiators are retained:
// see introspect.go).  No terminator fires or consumes, so every iteration
// meets the same state.  The first-follower index answers each initiator
// with one comparison, so ns/terminator is linear in state (EXPERIMENTS.md
// records the measured 4096 ÷ 256 ratio).
func BenchmarkNotSpoiledState(b *testing.B) {
	for _, state := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("state=%d", state), func(b *testing.B) {
			d, pool, roster := pooledDetector(b, []core.SiteID{"s1"}, []string{"A", "C", "D"}, "NOT(C)[A, D]", Chronicle)
			fired := 0
			d.Subscribe("X", func(*event.Occurrence) { fired++ })
			local := int64(0)
			publish := func(typ string) {
				local++
				o := pool.GetPrimitive(typ, event.Explicit, core.DeriveStamp("s1", local, tRatio), roster.MustSite("s1"), nil)
				d.Publish(o)
				o.Release()
			}
			for i := 0; i < state; i++ {
				publish("A")
				publish("C")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publish("D")
			}
			b.StopTimer()
			if fired != 0 || d.StateSize() != 2*state {
				b.Fatalf("%d detections, state %d: want none and %d", fired, d.StateSize(), 2*state)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/terminator")
		})
	}
}
