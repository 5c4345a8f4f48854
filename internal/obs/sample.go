package obs

// Sampler makes deterministic head-sampling decisions for the tracer: a
// raise is kept or dropped by a seeded hash of its identity (event type,
// origin site, and the raise stamp's global/local components), never by
// ambient randomness — determinism is the point: the same seed over the
// same run yields the same sampled-span stream regardless of transport
// mode or pooling.
//
// Because the decision is a pure function of raise identity, it can be
// recomputed anywhere the identity is known — in particular on the decode
// side of a serializing transport, where the in-memory sample bit does
// not travel with the occurrence.  Identically-stamped raises of the same
// type at the same site share a decision by construction, coherent with
// the paper's treatment of simultaneity (Section 3.1): they are the same
// instant's occurrence as far as the semantics can tell.
//
// Rates are head rates: the decision is made once, at raise, and
// propagates through constituent capture — a composite detection is
// sampled only when every constituent is, so a sampled detection always
// carries complete lineage (no dangling Links in its KindDetect span).
// Per-name overrides (SetRate) thin specific event types or definitions
// below the default without touching the rest.
//
// A nil *Sampler keeps everything, so wiring code guards one pointer
// check.  Not safe for concurrent mutation; configure before the run.
type Sampler struct {
	seed uint64
	rate float64
	// perName overrides the default rate for specific event types (at
	// raise) or definition names (at publish).
	perName map[string]float64
}

// NewSampler returns a sampler keeping the given fraction of raises
// (clamped to [0, 1]) under the given seed.  Rate 1 keeps everything and
// rate 0 keeps nothing — both bypass the hash entirely.
func NewSampler(seed uint64, rate float64) *Sampler {
	return &Sampler{seed: seed, rate: clampRate(rate), perName: make(map[string]float64)}
}

// SetRate overrides the sampling rate for one event type or definition
// name.  Returns the sampler for chaining.
func (s *Sampler) SetRate(name string, rate float64) *Sampler {
	s.perName[name] = clampRate(rate)
	return s
}

// Rate returns the effective rate for name (the default when no override
// is set).
func (s *Sampler) Rate(name string) float64 {
	if s == nil {
		return 1
	}
	if r, ok := s.perName[name]; ok {
		return r
	}
	return s.rate
}

// HasRate reports whether name carries an explicit per-name override.
// Publish-side thinning applies only to overridden definition names, so
// default-rate composites inherit their constituents' head decision
// untouched.
func (s *Sampler) HasRate(name string) bool {
	if s == nil {
		return false
	}
	_, ok := s.perName[name]
	return ok
}

// Keep decides whether the raise identified by (typ, site, global, local)
// is sampled.  A nil sampler keeps everything.
func (s *Sampler) Keep(typ, site string, global, local int64) bool {
	if s == nil {
		return true
	}
	rate := s.rate
	if r, ok := s.perName[typ]; ok {
		rate = r
	}
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	// Compare the top 53 bits of the hash (exactly representable in a
	// float64) against rate·2^53 — a uniform threshold test with no math
	// package dependency.
	h := s.hash(typ, site, global, local)
	return float64(h>>11) < rate*float64(1<<53)
}

// hash is FNV-1a over the raise identity, offset by the seed.
func (s *Sampler) hash(typ, site string, global, local int64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ s.seed
	for i := 0; i < len(typ); i++ {
		h = (h ^ uint64(typ[i])) * prime
	}
	h = (h ^ 0xff) * prime // separator: "AB"+"C" must not collide with "A"+"BC"
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * prime
	}
	for shift := 0; shift < 64; shift += 8 {
		h = (h ^ (uint64(global) >> shift & 0xff)) * prime
	}
	for shift := 0; shift < 64; shift += 8 {
		h = (h ^ (uint64(local) >> shift & 0xff)) * prime
	}
	return h
}

// clampRate pins a rate into [0, 1].
func clampRate(r float64) float64 {
	switch {
	case r < 0:
		return 0
	case r > 1:
		return 1
	}
	return r
}
