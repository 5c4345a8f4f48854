// Package live makes a ddetect.System safe for concurrent producers.
//
// The simulation core is deliberately single-threaded — determinism comes
// from one goroutine turning the crank.  Real applications have many
// goroutines raising events (request handlers, device readers, store
// hooks).  Runtime bridges the two in the idiomatic Go way: share memory
// by communicating.  All access to the system is funneled through one
// crank goroutine consuming a command channel; producers' calls block
// until their command has run, so each caller still observes its own
// effects in order, while cross-goroutine interleaving is decided by the
// channel — exactly one linearization, no locks in user code.
package live

import (
	"errors"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ddetect"
	"repro/internal/event"
)

// Runtime owns a ddetect.System and serializes every operation on it.
type Runtime struct {
	sys  *ddetect.System
	cmds chan func()

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// ErrClosed is returned by operations on a closed runtime.
var ErrClosed = errors.New("live: runtime is closed")

// New wraps a system and starts the crank goroutine.  The caller must not
// touch the system directly afterwards.
func New(sys *ddetect.System) *Runtime {
	r := &Runtime{sys: sys, cmds: make(chan func())}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for fn := range r.cmds {
			fn()
		}
	}()
	return r
}

// Do runs fn on the crank goroutine and waits for it to finish.  All
// other methods are built on Do, so any ad-hoc access to the underlying
// system is as safe as the built-ins.  That includes Retain and Release
// on an occurrence a handler kept: the occurrence belongs to the system,
// whose pool counts references without synchronisation.
func (r *Runtime) Do(fn func(sys *ddetect.System)) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	done := make(chan struct{})
	r.cmds <- func() {
		defer close(done)
		fn(r.sys)
	}
	r.mu.Unlock()
	<-done
	return nil
}

// Raise raises a primitive event at a site.
func (r *Runtime) Raise(site core.SiteID, typ string, class event.Class, params event.Params) (*event.Occurrence, error) {
	var occ *event.Occurrence
	var err error
	doErr := r.Do(func(sys *ddetect.System) {
		s := sys.Site(site)
		if s == nil {
			err = errors.New("live: unknown site " + string(site))
			return
		}
		occ, err = s.Raise(typ, class, params)
	})
	if doErr != nil {
		return nil, doErr
	}
	return occ, err
}

// Step advances simulated time by dt.
func (r *Runtime) Step(dt clock.Microticks) error {
	return r.Do(func(sys *ddetect.System) { sys.Step(dt) })
}

// Settle drains the network and reorderers (see ddetect.System.Settle).
func (r *Runtime) Settle(maxSteps int) error {
	var err error
	if doErr := r.Do(func(sys *ddetect.System) { err = sys.Settle(maxSteps) }); doErr != nil {
		return doErr
	}
	return err
}

// Stats snapshots the system counters.
func (r *Runtime) Stats() (ddetect.Stats, error) {
	var st ddetect.Stats
	err := r.Do(func(sys *ddetect.System) { st = sys.Stats() })
	return st, err
}

// Now returns the current simulated time.
func (r *Runtime) Now() (clock.Microticks, error) {
	var now clock.Microticks
	err := r.Do(func(sys *ddetect.System) { now = sys.Now() })
	return now, err
}

// Close stops the crank goroutine.  Pending calls finish first; later
// calls fail with ErrClosed.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.cmds)
	r.mu.Unlock()
	r.wg.Wait()
}
