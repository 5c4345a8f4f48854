package pipeline

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// countStage counts ticks and reports a fixed item count.
type countStage struct {
	name  string
	items int
	ticks int
	trace *[]string
}

func (s *countStage) Name() string { return s.name }
func (s *countStage) Tick(now clock.Microticks) int {
	s.ticks++
	if s.trace != nil {
		*s.trace = append(*s.trace, s.name)
	}
	return s.items
}

func TestDriverRunsStagesInOrder(t *testing.T) {
	var trace []string
	a := &countStage{name: "a", items: 2, trace: &trace}
	b := &countStage{name: "b", items: 3, trace: &trace}
	d := NewDriver(a, b)
	d.Tick(10)
	d.Tick(20)
	want := []string{"a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	st := d.Stats()
	if st[0].Name != "a" || st[0].Ticks != 2 || st[0].Items != 4 {
		t.Fatalf("stage a stats %+v", st[0])
	}
	if st[1].Name != "b" || st[1].Ticks != 2 || st[1].Items != 6 {
		t.Fatalf("stage b stats %+v", st[1])
	}
	if st[0].Hist.Total() != 2 {
		t.Fatalf("histogram samples %d, want 2", st[0].Hist.Total())
	}
}

func TestDriverFakeClock(t *testing.T) {
	// Fake clock: every read is 32ns after the one before, and stage
	// boundaries are chained, so each stage appears to take exactly 32ns
	// and every instrumentation field is predictable.  A tick over two
	// stages reads the clock three times bare and four times hooked (one
	// more after the hooks between the stages); the hook below also burns
	// 320ns of fake time, which must be billed to neither stage.
	for _, hooked := range []bool{false, true} {
		a := &countStage{name: "a", items: 1}
		b := &countStage{name: "b", items: 1}
		d := NewDriver(a, b)
		var ticks, reads int64
		d.SetNow(func() time.Duration {
			ticks++
			reads++
			return time.Duration(32 * ticks)
		})
		var hookTotal time.Duration
		wantReads := int64(2 * 3)
		fake := true
		if hooked {
			d.Hook(func(ev StageEvent) {
				if fake && ev.Elapsed != 32*time.Nanosecond {
					t.Fatalf("stage %s elapsed %v, want 32ns", ev.Stage, ev.Elapsed)
				}
				hookTotal += ev.Elapsed
				ticks += 10
			})
			wantReads = 2 * 4
		}
		d.Tick(1)
		d.Tick(2)
		if reads != wantReads {
			t.Fatalf("hooked=%v: %d clock reads over two ticks, want %d", hooked, reads, wantReads)
		}
		var busy time.Duration
		for _, st := range d.Stats() {
			if st.Busy != 64*time.Nanosecond || st.MaxTick != 32*time.Nanosecond {
				t.Fatalf("hooked=%v: stage %s busy=%v max=%v, want 64ns/32ns", hooked, st.Name, st.Busy, st.MaxTick)
			}
			// 32ns falls in bucket [32, 64) = index 5, both samples.
			if st.Hist.Counts[5] != 2 || st.Hist.Total() != 2 {
				t.Fatalf("hooked=%v: stage %s histogram %v", hooked, st.Name, st.Hist.Counts)
			}
			busy += st.Busy
		}
		if hooked && hookTotal != busy {
			t.Fatalf("hooks saw %v, Busy totals %v", hookTotal, busy)
		}
		// SetNow(nil) restores a real clock; ticking must not panic and
		// keeps counting.
		fake = false
		d.SetNow(nil)
		d.Tick(3)
		if st := d.Stats(); st[0].Ticks != 3 {
			t.Fatalf("ticks %d, want 3", st[0].Ticks)
		}
	}
}

func TestDriverHooks(t *testing.T) {
	a := &countStage{name: "a", items: 1}
	d := NewDriver(a)
	var events []StageEvent
	d.Hook(func(ev StageEvent) { events = append(events, ev) })
	d.Tick(42)
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Stage != "a" || ev.Now != 42 || ev.Items != 1 || ev.Elapsed < 0 {
		t.Fatalf("unexpected event %+v", ev)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)                   // bucket 0
	h.Observe(3 * time.Nanosecond) // bucket 1
	h.Observe(1500 * time.Nanosecond)
	if h.Total() != 4 {
		t.Fatalf("total %d, want 4", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[10] != 1 {
		t.Fatalf("counts %v", h.Counts)
	}
	if q := h.Quantile(0.5); q <= 0 {
		t.Fatalf("quantile %v", q)
	}
	if h.Quantile(1.0) < h.Quantile(0.0) {
		t.Fatalf("quantiles not monotone")
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
	if (&Histogram{}).String() != "-" {
		t.Fatalf("empty histogram string %q", (&Histogram{}).String())
	}
}
