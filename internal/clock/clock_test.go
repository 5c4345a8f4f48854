package clock

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestTruncModes(t *testing.T) {
	cases := []struct {
		mode TruncMode
		t, g Microticks
		want int64
	}{
		{TruncFloor, 91548289*10 + 5, 100, 9154828}, // within the paper's scale
		{TruncFloor, 99, 100, 0},
		{TruncFloor, 100, 100, 1},
		{TruncFloor, -1, 100, -1},
		{TruncFloor, -100, 100, -1},
		{TruncFloor, -101, 100, -2},
		{TruncCeil, 1, 100, 1},
		{TruncCeil, 100, 100, 1},
		{TruncCeil, -1, 100, 0},
		{TruncRound, 49, 100, 0},
		{TruncRound, 50, 100, 1},
		{TruncRound, -49, 100, 0},
		{TruncRound, -50, 100, -1},
	}
	for _, c := range cases {
		if got := c.mode.Trunc(c.t, c.g); got != c.want {
			t.Errorf("%s.Trunc(%d, %d) = %d, want %d", c.mode, c.t, c.g, got, c.want)
		}
	}
}

func TestTruncPanicsOnBadGranularity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Trunc with granularity 0 must panic")
		}
	}()
	TruncFloor.Trunc(1, 0)
}

func TestTruncModeString(t *testing.T) {
	if TruncFloor.String() != "floor" || TruncRound.String() != "round" || TruncCeil.String() != "ceil" {
		t.Errorf("TruncMode strings wrong")
	}
	if !strings.Contains(TruncMode(9).String(), "9") {
		t.Errorf("unknown mode String should include the value")
	}
}

func TestConfigValidate(t *testing.T) {
	good := PaperConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("PaperConfig invalid: %v", err)
	}
	bad := []Config{
		{LocalGranularity: 0, GlobalGranularity: 100, Precision: 10},
		{LocalGranularity: 10, GlobalGranularity: 0, Precision: 10},
		{LocalGranularity: 10, GlobalGranularity: 100, Precision: -1},
		{LocalGranularity: 10, GlobalGranularity: 100, Precision: 100}, // g_g must exceed Π
		{LocalGranularity: 200, GlobalGranularity: 100, Precision: 10}, // g_g finer than g
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatalf("NewSystem with zero config must fail")
	}
}

func TestMustNewSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNewSystem with bad config must panic")
		}
	}()
	MustNewSystem(Config{})
}

func TestAddSiteOffsetBounds(t *testing.T) {
	s := MustNewSystem(PaperConfig()) // Π = 99, so |offset| ≤ 49
	if _, err := s.AddSite("ok", 49, 0); err != nil {
		t.Errorf("offset at Π/2 should be accepted: %v", err)
	}
	if _, err := s.AddSite("toofar", 50, 0); err == nil {
		t.Errorf("offset beyond Π/2 must be rejected")
	}
	if _, err := s.AddSite("", 0, 0); err == nil {
		t.Errorf("empty site name must be rejected")
	}
	if _, err := s.AddSite("ok", 0, 0); !errors.Is(err, ErrDuplicateSite) {
		t.Errorf("duplicate site must return ErrDuplicateSite, got %v", err)
	}
}

func TestLocalAndGlobalTicks(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	k := s.MustAddSite("k", 0, 0)
	s.AdvanceTo(915482760) // 91548276 local ticks of 10 microticks
	local := k.LocalTick(s.Now())
	if local != 91548276 {
		t.Fatalf("local tick = %d, want 91548276", local)
	}
	if g := k.GlobalTick(local); g != 9154827 {
		t.Fatalf("global tick = %d, want 9154827", g)
	}
}

func TestOffsetShiftsReading(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	ahead := s.MustAddSite("ahead", 30, 0)
	behind := s.MustAddSite("behind", -30, 0)
	s.AdvanceTo(1000)
	if a, b := ahead.LocalTick(1000), behind.LocalTick(1000); a <= b {
		t.Errorf("ahead clock (%d) must read later than behind clock (%d)", a, b)
	}
}

func TestDriftAccumulates(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	fast := s.MustAddSite("fast", 0, 1000) // +1000 ppm
	if d0, d1 := fast.Divergence(0), fast.Divergence(10_000); d1 <= d0 {
		t.Errorf("drift must accumulate: divergence %d -> %d", d0, d1)
	}
}

func TestReadSite(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	s.MustAddSite("k", 0, 0)
	s.AdvanceTo(12345)
	r, err := s.ReadSite("k")
	if err != nil {
		t.Fatalf("ReadSite: %v", err)
	}
	if r.Site != "k" || r.Local != 1234 || r.Global != 123 {
		t.Errorf("Reading = %+v, want local 1234 global 123", r)
	}
	if _, err := s.ReadSite("nope"); err == nil {
		t.Errorf("ReadSite of unknown site must fail")
	}
}

func TestAdvanceMonotonic(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	if got := s.Advance(10); got != 10 {
		t.Fatalf("Advance returned %d, want 10", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("negative Advance must panic")
		}
	}()
	s.Advance(-1)
}

func TestAdvanceToBackwardsPanics(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	s.AdvanceTo(100)
	defer func() {
		if recover() == nil {
			t.Fatalf("AdvanceTo backwards must panic")
		}
	}()
	s.AdvanceTo(50)
}

func TestSitesSorted(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	s.MustAddSite("m", 0, 0)
	s.MustAddSite("k", 0, 0)
	s.MustAddSite("l", 0, 0)
	got := s.Sites()
	if len(got) != 3 || got[0] != "k" || got[1] != "l" || got[2] != "m" {
		t.Errorf("Sites = %v, want [k l m]", got)
	}
	if s.Site("k") == nil || s.Site("zz") != nil {
		t.Errorf("Site lookup broken")
	}
}

func TestCheckPrecisionDetectsDrifters(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	s.MustAddSite("good", 0, 0)
	s.MustAddSite("drifty", 0, 5000) // 5000 ppm: at t=100_000 diverges by 500 > Π
	if err := s.CheckPrecision(1_000, 100); err != nil {
		t.Errorf("short horizon should still be in sync: %v", err)
	}
	if err := s.CheckPrecision(100_000, 1_000); err == nil {
		t.Errorf("long horizon must detect the drifting clock")
	}
	if err := s.CheckPrecision(100, 0); err == nil {
		t.Errorf("non-positive step must be rejected")
	}
}

// Simultaneous events at synchronized sites receive global stamps at most
// one granule apart — the property g_g > Π exists to guarantee.
func TestSimultaneousEventsWithinOneGranule(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	a := s.MustAddSite("a", 49, 0)
	b := s.MustAddSite("b", -49, 0)
	for ref := Microticks(0); ref < 100_000; ref += 7 {
		ga := a.GlobalTick(a.LocalTick(ref))
		gb := b.GlobalTick(b.LocalTick(ref))
		d := ga - gb
		if d < 0 {
			d = -d
		}
		if d > 1 {
			t.Fatalf("at ref %d globals %d and %d differ by more than one granule", ref, ga, gb)
		}
	}
}

func TestPaperConfigScale(t *testing.T) {
	c := PaperConfig()
	// 1 microtick = 1ms: local granularity 1/100s = 10 microticks, global
	// granularity 1/10s = 100 microticks, Π < g_g.
	if c.LocalGranularity != 10 || c.GlobalGranularity != 100 || c.Precision >= c.GlobalGranularity {
		t.Errorf("PaperConfig drifted from the Section 5.1 scale: %+v", c)
	}
}

// TestNowIsLockFreeAndRaceFree runs readers of Now against a writer: Now
// takes no lock, so under -race this is the test that the load and the
// stores are atomic, and every reader must see time only move forwards.
func TestNowIsLockFreeAndRaceFree(t *testing.T) {
	s := MustNewSystem(PaperConfig())
	const steps = 5000
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := Microticks(0)
			for last < steps {
				now := s.Now()
				if now < last {
					t.Errorf("Now went backwards: %d after %d", now, last)
					return
				}
				last = now
			}
		}()
	}
	for i := 0; i < steps/2; i++ {
		s.Advance(1)
	}
	for target := Microticks(steps/2 + 1); target <= steps; target++ {
		s.AdvanceTo(target)
	}
	wg.Wait()
	if s.Now() != steps {
		t.Fatalf("Now = %d after advancing to %d", s.Now(), steps)
	}
}
