// Package clock simulates the approximated global time base of Section 4.1
// of Yang & Chakravarthy (ICDE 1999).
//
// In a distributed system there is no global time in nature.  Each site has
// a local physical clock; local clocks are kept within a known precision Π
// of each other (as observed by a reference clock z with granularity g_z).
// A global notion of time is obtained by truncating each local clock to a
// coarser global granularity g_g with g_g > Π, so that two simultaneous
// events receive global timestamps at most one global tick apart.
//
// This package provides a deterministic simulation of that model.  All
// quantities are expressed in integer microticks, the granularity g_z of the
// reference clock (e.g. one microtick = 1ms of simulated time).  A SiteClock
// converts reference time into local clock ticks (granularity g, e.g. 10
// microticks = 1/100s) subject to a bounded offset and a bounded drift, and
// local ticks into global ticks (granularity g_g, e.g. 100 microticks =
// 1/10s) using a configurable TRUNC function (Definition 4.3).
//
// The simulation never reads the wall clock: time advances only when the
// test or application calls System.Advance, which makes every scenario in
// the paper — including adversarial clock skews — reproducible.
package clock

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Microticks is a time quantity in units of the reference clock granularity
// g_z.  It is used both for instants (microticks since the simulation epoch)
// and durations.
type Microticks = int64

// TruncMode selects the TRUNC function of Definition 4.3.  The paper allows
// round, ceiling or floor "as long as it is consistent throughout the
// system"; from Section 4.1 on, the paper fixes TRUNC to integer division,
// which is TruncFloor for non-negative times.
type TruncMode int

const (
	// TruncFloor is integer division (the paper's default).
	TruncFloor TruncMode = iota
	// TruncRound rounds half away from zero.
	TruncRound
	// TruncCeil rounds up.
	TruncCeil
)

func (m TruncMode) String() string {
	switch m {
	case TruncFloor:
		return "floor"
	case TruncRound:
		return "round"
	case TruncCeil:
		return "ceil"
	default:
		return fmt.Sprintf("TruncMode(%d)", int(m))
	}
}

// Trunc truncates t to multiples of granularity g according to the mode.
// It panics if g <= 0.  Negative t is handled symmetrically so that the
// function is consistent over the whole time line.
func (m TruncMode) Trunc(t Microticks, g Microticks) int64 {
	if g <= 0 {
		panic(fmt.Sprintf("clock: non-positive granularity %d", g))
	}
	switch m {
	case TruncFloor:
		return floorDiv(t, g)
	case TruncCeil:
		return ceilDiv(t, g)
	case TruncRound:
		if t >= 0 {
			return floorDiv(t+g/2, g)
		}
		return ceilDiv(t-g/2, g)
	default:
		panic(fmt.Sprintf("clock: unknown trunc mode %d", int(m)))
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// Config describes a simulated time base.
type Config struct {
	// LocalGranularity is the local clock granularity g in microticks per
	// local tick (paper example: g = 1/100s = 10 microticks of 1ms).
	LocalGranularity Microticks
	// GlobalGranularity is g_g in microticks per global tick (paper
	// example: g_g = 1/10s = 100 microticks).  Must exceed Precision.
	GlobalGranularity Microticks
	// Precision is Π, the maximum offset between any two local clocks as
	// observed by the reference clock, in microticks (paper example:
	// Π < 1/10s).  The paper requires g_g > Π.
	Precision Microticks
	// Trunc selects the TRUNC function; the zero value is TruncFloor,
	// matching the paper.
	Trunc TruncMode
}

// Validate reports whether the configuration satisfies the constraints of
// Section 4.1.
func (c Config) Validate() error {
	if c.LocalGranularity <= 0 {
		return fmt.Errorf("clock: LocalGranularity must be positive, got %d", c.LocalGranularity)
	}
	if c.GlobalGranularity <= 0 {
		return fmt.Errorf("clock: GlobalGranularity must be positive, got %d", c.GlobalGranularity)
	}
	if c.Precision < 0 {
		return fmt.Errorf("clock: Precision must be non-negative, got %d", c.Precision)
	}
	if c.GlobalGranularity <= c.Precision {
		return fmt.Errorf("clock: need g_g > Π to bound simultaneous-event stamps (g_g=%d, Π=%d)",
			c.GlobalGranularity, c.Precision)
	}
	if c.GlobalGranularity < c.LocalGranularity {
		return fmt.Errorf("clock: global granularity %d must be no finer than local granularity %d",
			c.GlobalGranularity, c.LocalGranularity)
	}
	return nil
}

// PaperConfig returns the configuration of the worked example in Section
// 5.1: local clocks with granularity g = 1/100s, reference granularity
// g_z = 1/1000s, precision Π < 1/10s and global granularity g_g = 1/10s.
// One microtick is 1ms.
func PaperConfig() Config {
	return Config{
		LocalGranularity:  10,  // 1/100 s
		GlobalGranularity: 100, // 1/10 s
		Precision:         99,  // Π < g_g
		Trunc:             TruncFloor,
	}
}

// SiteClock is one site's local physical clock.  Its reading differs from
// the reference clock by a constant offset plus a linear drift; the System
// verifies that the total divergence stays within Π/2 of the reference (so
// that any two clocks stay within Π of each other) over a stated horizon.
type SiteClock struct {
	name     string
	offset   Microticks // initial offset from the reference clock
	driftPPM int64      // drift in parts per million of elapsed reference time
	cfg      Config
}

// Name returns the site name the clock belongs to.
func (sc *SiteClock) Name() string { return sc.name }

// Offset returns the clock's constant offset from the reference clock.
func (sc *SiteClock) Offset() Microticks { return sc.offset }

// DriftPPM returns the clock's drift rate in parts per million.
func (sc *SiteClock) DriftPPM() int64 { return sc.driftPPM }

// localTime returns the clock's raw reading (in microticks) at reference
// time ref.
func (sc *SiteClock) localTime(ref Microticks) Microticks {
	return ref + sc.offset + ref*sc.driftPPM/1_000_000
}

// LocalTick returns the local clock tick l_k (Definition 4.3's input) at
// reference time ref: the raw reading truncated to the local granularity.
func (sc *SiteClock) LocalTick(ref Microticks) int64 {
	return floorDiv(sc.localTime(ref), sc.cfg.LocalGranularity)
}

// GlobalTick implements Definition 4.3: the global time g_k(l_k) of a local
// clock tick is the tick's calendar time truncated to the global
// granularity g_g.
func (sc *SiteClock) GlobalTick(localTick int64) int64 {
	return sc.cfg.Trunc.Trunc(localTick*sc.cfg.LocalGranularity, sc.cfg.GlobalGranularity)
}

// Divergence returns |clock reading − reference| at reference time ref.
func (sc *SiteClock) Divergence(ref Microticks) Microticks {
	d := sc.localTime(ref) - ref
	if d < 0 {
		return -d
	}
	return d
}

// System is a deterministic simulated time base shared by a set of sites.
// It is safe for concurrent use.  Reading the time takes no lock: now is
// an atomic that Now loads, because every raise stamps from it and the
// goroutine turning the crank is, in every configuration that exists, the
// only writer.  Advance and AdvanceTo still serialize on mu, so several
// writers stay correct too; mu also guards the site table.
type System struct {
	mu    sync.RWMutex
	cfg   Config
	now   atomic.Int64 // Microticks; stored under mu, loaded without it
	sites map[string]*SiteClock
}

// NewSystem creates a time base with the given configuration.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, sites: make(map[string]*SiteClock)}, nil
}

// MustNewSystem is NewSystem that panics on error, for tests and examples
// with known-good configurations.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// ErrDuplicateSite is returned by AddSite when the name is already taken.
var ErrDuplicateSite = errors.New("clock: duplicate site name")

// AddSite registers a site clock with a constant offset and a drift rate.
// The offset must keep the clock within Π/2 of the reference so that any
// pair of clocks stays within Π; drift tightens that budget over time and
// is checked by CheckPrecision for an explicit horizon.
func (s *System) AddSite(name string, offset Microticks, driftPPM int64) (*SiteClock, error) {
	if name == "" {
		return nil, errors.New("clock: empty site name")
	}
	half := s.cfg.Precision / 2
	if offset > half || offset < -half {
		return nil, fmt.Errorf("clock: site %q offset %d exceeds Π/2 = %d", name, offset, half)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sites[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSite, name)
	}
	sc := &SiteClock{name: name, offset: offset, driftPPM: driftPPM, cfg: s.cfg}
	s.sites[name] = sc
	return sc, nil
}

// MustAddSite is AddSite that panics on error.
func (s *System) MustAddSite(name string, offset Microticks, driftPPM int64) *SiteClock {
	sc, err := s.AddSite(name, offset, driftPPM)
	if err != nil {
		panic(err)
	}
	return sc
}

// Site returns the clock registered under name, or nil.
func (s *System) Site(name string) *SiteClock {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sites[name]
}

// Sites returns the registered site names in sorted order.
func (s *System) Sites() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.sites))
	for n := range s.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Now returns the current reference time: one atomic load, no lock.
func (s *System) Now() Microticks { return s.now.Load() }

// Advance moves the reference clock forward by d microticks and returns the
// new reference time.  Advancing by a negative duration panics: simulated
// time, like real time, is monotonic.
func (s *System) Advance(d Microticks) Microticks {
	if d < 0 {
		panic("clock: cannot advance time backwards")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now.Add(d)
}

// AdvanceTo moves the reference clock to the absolute time t, which must
// not precede the current time.
func (s *System) AdvanceTo(t Microticks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := s.now.Load(); t < now {
		panic(fmt.Sprintf("clock: AdvanceTo(%d) would move time backwards from %d", t, now))
	}
	s.now.Store(t)
}

// Reading is a site clock observation: the local tick and the derived
// global tick at some reference instant.
type Reading struct {
	Site   string
	Local  int64
	Global int64
}

// ReadSite observes the named site's clock at the current reference time.
func (s *System) ReadSite(name string) (Reading, error) {
	now := s.now.Load()
	s.mu.RLock()
	sc := s.sites[name]
	s.mu.RUnlock()
	if sc == nil {
		return Reading{}, fmt.Errorf("clock: unknown site %q", name)
	}
	local := sc.LocalTick(now)
	return Reading{Site: name, Local: local, Global: sc.GlobalTick(local)}, nil
}

// CheckPrecision verifies that every pair of site clocks stays within Π of
// each other at every multiple of step in [0, horizon].  It returns the
// first violation found, or nil.
func (s *System) CheckPrecision(horizon, step Microticks) error {
	if step <= 0 {
		return errors.New("clock: CheckPrecision step must be positive")
	}
	s.mu.RLock()
	clocks := make([]*SiteClock, 0, len(s.sites))
	for _, sc := range s.sites {
		clocks = append(clocks, sc)
	}
	s.mu.RUnlock()
	sort.Slice(clocks, func(i, j int) bool { return clocks[i].name < clocks[j].name })
	for t := Microticks(0); t <= horizon; t += step {
		for i := 0; i < len(clocks); i++ {
			for j := i + 1; j < len(clocks); j++ {
				a, b := clocks[i].localTime(t), clocks[j].localTime(t)
				d := a - b
				if d < 0 {
					d = -d
				}
				if d > s.cfg.Precision {
					return fmt.Errorf("clock: sites %q and %q diverge by %d > Π=%d at t=%d",
						clocks[i].name, clocks[j].name, d, s.cfg.Precision, t)
				}
			}
		}
	}
	return nil
}
