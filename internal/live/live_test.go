package live

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ddetect"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/network"
)

func newRuntime(t *testing.T) (*Runtime, *uint64) {
	t.Helper()
	sys := ddetect.MustNewSystem(ddetect.Config{Net: network.Config{BaseLatency: 10}})
	sys.MustAddSite("hub", 0, 0)
	sys.MustAddSite("edge", 0, 0)
	for _, typ := range []string{"A", "B"} {
		if err := sys.Declare(typ, event.Explicit); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.DefineAt("hub", "AB", "A ; B", detector.Chronicle); err != nil {
		t.Fatal(err)
	}
	var detections uint64
	if err := sys.Subscribe("AB", func(*event.Occurrence) { detections++ }); err != nil {
		t.Fatal(err)
	}
	return New(sys), &detections
}

func TestSequentialUseThroughRuntime(t *testing.T) {
	r, detections := newRuntime(t)
	defer r.Close()
	if _, err := r.Raise("edge", "A", event.Explicit, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := r.Step(50); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Raise("edge", "B", event.Explicit, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Settle(200); err != nil {
		t.Fatal(err)
	}
	if *detections != 1 {
		t.Fatalf("detections = %d, want 1", *detections)
	}
}

// Many producer goroutines raise concurrently while another advances
// time; run under -race this proves the serialization.  Every raised
// event must be accounted for.
func TestConcurrentProducers(t *testing.T) {
	r, _ := newRuntime(t)
	defer r.Close()

	const producers = 8
	const perProducer = 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			typ := []string{"A", "B"}[p%2]
			for i := 0; i < perProducer; i++ {
				if _, err := r.Raise("edge", typ, event.Explicit, event.Params{"p": p, "i": i}); err != nil {
					t.Errorf("raise: %v", err)
					return
				}
				if i%10 == 0 {
					if err := r.Step(30); err != nil {
						t.Errorf("step: %v", err)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	<-done
	if err := r.Settle(10_000); err != nil {
		t.Fatal(err)
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Raised != producers*perProducer {
		t.Fatalf("raised = %d, want %d", st.Raised, producers*perProducer)
	}
	if st.Released != st.Raised {
		t.Fatalf("released %d of %d raised", st.Released, st.Raised)
	}
}

func TestRaiseUnknownSite(t *testing.T) {
	r, _ := newRuntime(t)
	defer r.Close()
	if _, err := r.Raise("nowhere", "A", event.Explicit, nil); err == nil {
		t.Fatalf("unknown site accepted")
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	r, _ := newRuntime(t)
	r.Close()
	r.Close() // idempotent
	if err := r.Step(10); err != ErrClosed {
		t.Fatalf("Step after close = %v, want ErrClosed", err)
	}
	if _, err := r.Raise("edge", "A", event.Explicit, nil); err != ErrClosed {
		t.Fatalf("Raise after close = %v, want ErrClosed", err)
	}
	if err := r.Do(func(*ddetect.System) {}); err != ErrClosed {
		t.Fatalf("Do after close = %v, want ErrClosed", err)
	}
}

func TestDoExposesSystem(t *testing.T) {
	r, _ := newRuntime(t)
	defer r.Close()
	var sites []core.SiteID
	if err := r.Do(func(sys *ddetect.System) {
		for _, id := range []core.SiteID{"edge", "hub"} {
			if sys.Site(id) != nil {
				sites = append(sites, id)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 {
		t.Fatalf("sites = %v", sites)
	}
	now, err := r.Now()
	if err != nil || now < 0 {
		t.Fatalf("Now = %d, %v", now, err)
	}
}

// TestRetainedDetectionReleasedThroughDo pins the one threading rule the
// occurrence pool has: every Retain and Release runs on the goroutine
// driving the System.  A Subscribe handler (on the crank) retains each
// detection and hands it to another goroutine, which reads it and gives it
// back through Do.  Under -race a Release from the wrong goroutine is a
// reported data race; done right, every occurrence returns to the pool.
func TestRetainedDetectionReleasedThroughDo(t *testing.T) {
	r, detections := newRuntime(t)
	defer r.Close()

	const rounds = 16
	// Buffered past the detection count: the handler runs on the crank and
	// must never wait for a consumer that is itself waiting in Do.
	kept := make(chan *event.Occurrence, 2*rounds)
	if err := r.Do(func(sys *ddetect.System) {
		if err := sys.Subscribe("AB", func(o *event.Occurrence) { kept <- o.Retain() }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for o := range kept {
			// The retained tree is intact long after the handler returned.
			if o.Type != "AB" || len(o.Constituents) != 2 || !o.Pooled() {
				t.Errorf("retained detection damaged: type=%q constituents=%d pooled=%v",
					o.Type, len(o.Constituents), o.Pooled())
			}
			if err := r.Do(func(*ddetect.System) { o.Release() }); err != nil {
				t.Errorf("release through Do: %v", err)
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		for _, typ := range []string{"A", "B"} {
			if _, err := r.Raise("edge", typ, event.Explicit, nil); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 6; s++ {
				if err := r.Step(50); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := r.Settle(200); err != nil {
		t.Fatal(err)
	}
	close(kept) // settled: no handler will run again
	wg.Wait()
	if *detections != rounds {
		t.Fatalf("detections = %d, want %d", *detections, rounds)
	}
	var ps event.PoolStats
	if err := r.Do(func(sys *ddetect.System) { ps = sys.PoolStats() }); err != nil {
		t.Fatal(err)
	}
	if ps.Gets == 0 || ps.Gets != ps.Puts || ps.DoublePuts != 0 {
		t.Fatalf("pool after settle: %+v, want every get put back and no double put", ps)
	}
}
