package detector

import "testing"

func TestAnyRecentFiresOnEachArrival(t *testing.T) {
	c := run(t, "ANY(2, A, B, C)", Recent,
		occAt("s1", 10, "A"), occAt("s1", 20, "B"), occAt("s1", 30, "C"))
	// B completes {A,B}; C then pairs with the retained most recent of
	// the first eligible constituent (A).
	c.assertSigs(t, "X[A@10 B@20]", "X[A@10 C@30]")
}

func TestAnyChronicleConsumes(t *testing.T) {
	c := run(t, "ANY(2, A, B, C)", Chronicle,
		occAt("s1", 10, "A"), occAt("s1", 20, "B"), occAt("s1", 30, "C"))
	// A and B consumed by the first detection; C alone cannot complete.
	c.assertSigs(t, "X[A@10 B@20]")
}

func TestAnyChronicleOldestFirst(t *testing.T) {
	c := run(t, "ANY(2, A, B)", Chronicle,
		occAt("s1", 10, "A"), occAt("s1", 20, "A"), occAt("s1", 30, "B"), occAt("s1", 40, "B"))
	c.assertSigs(t, "X[A@10 B@30]", "X[A@20 B@40]")
}

func TestAnyCumulativeTakesEverything(t *testing.T) {
	c := run(t, "ANY(2, A, B)", Cumulative,
		occAt("s1", 10, "A"), occAt("s1", 20, "A"), occAt("s1", 30, "B"))
	c.assertSigs(t, "X[A@10 A@20 B@30]")
}

func TestAnyUnrestrictedCombinations(t *testing.T) {
	c := run(t, "ANY(2, A, B, C)", Unrestricted,
		occAt("s1", 10, "A"), occAt("s1", 20, "B"), occAt("s1", 30, "C"))
	// B pairs with A; C pairs with each of A and B.
	c.assertSigs(t, "X[A@10 B@20]", "X[A@10 C@30]", "X[B@20 C@30]")
}

func TestAnyThreeOfThree(t *testing.T) {
	c := run(t, "ANY(3, A, B, C)", Chronicle,
		occAt("s1", 10, "A"), occAt("s1", 20, "B"), occAt("s1", 30, "C"))
	c.assertSigs(t, "X[A@10 B@20 C@30]")
}

func TestAnyDoesNotFireBelowThreshold(t *testing.T) {
	for _, ctx := range Contexts() {
		c := run(t, "ANY(2, A, B, C)", ctx, occAt("s1", 10, "A"), occAt("s1", 20, "A"))
		if len(c.got) != 0 {
			t.Errorf("%s: ANY fired on one distinct type: %v", ctx, c.sigs())
		}
	}
}

// ANY(2, A, B) behaves like AND(A, B) in Chronicle for a simple trace —
// a consistency check between the two implementations.
func TestAnyTwoMatchesAndChronicle(t *testing.T) {
	trace := []int64{10, 20, 30, 40}
	types := []string{"A", "B", "B", "A"}
	cAny := run(t, "ANY(2, A, B)", Chronicle,
		occAt("s1", trace[0], types[0]), occAt("s1", trace[1], types[1]),
		occAt("s1", trace[2], types[2]), occAt("s1", trace[3], types[3]))
	cAnd := run(t, "A AND B", Chronicle,
		occAt("s1", trace[0], types[0]), occAt("s1", trace[1], types[1]),
		occAt("s1", trace[2], types[2]), occAt("s1", trace[3], types[3]))
	a, b := cAny.sigs(), cAnd.sigs()
	if len(a) != len(b) {
		t.Fatalf("ANY(2) detected %v, AND detected %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ANY(2) detected %v, AND detected %v", a, b)
		}
	}
}

func TestNotFiresWhenAbsent(t *testing.T) {
	c := run(t, "NOT(B)[A, C]", Chronicle,
		occAt("s1", 10, "A"), occAt("s1", 30, "C"))
	c.assertSigs(t, "X[A@10 C@30]")
}

func TestNotSuppressedBySpoiler(t *testing.T) {
	for _, ctx := range Contexts() {
		c := run(t, "NOT(B)[A, C]", ctx,
			occAt("s1", 10, "A"), occAt("s1", 20, "B"), occAt("s1", 30, "C"))
		if len(c.got) != 0 {
			t.Errorf("%s: NOT fired despite spoiler: %v", ctx, c.sigs())
		}
	}
}

func TestNotSpoilerBeforeInitiatorIgnored(t *testing.T) {
	c := run(t, "NOT(B)[A, C]", Chronicle,
		occAt("s1", 5, "B"), occAt("s1", 10, "A"), occAt("s1", 30, "C"))
	c.assertSigs(t, "X[A@10 C@30]")
}

func TestNotSpoilerAfterTerminatorIgnored(t *testing.T) {
	c := run(t, "NOT(B)[A, C]", Chronicle,
		occAt("s1", 10, "A"), occAt("s1", 30, "C"), occAt("s1", 40, "B"))
	c.assertSigs(t, "X[A@10 C@30]")
}

func TestNotChroniclePartialSpoil(t *testing.T) {
	// B@15 spoils A@10 but not A@20.
	c := run(t, "NOT(B)[A, C]", Chronicle,
		occAt("s1", 10, "A"), occAt("s1", 15, "B"), occAt("s1", 20, "A"), occAt("s1", 30, "C"))
	c.assertSigs(t, "X[A@20 C@30]")
}

func TestNotRecentUsesLatestInitiator(t *testing.T) {
	c := run(t, "NOT(B)[A, C]", Recent,
		occAt("s1", 10, "A"), occAt("s1", 15, "B"), occAt("s1", 20, "A"), occAt("s1", 30, "C"))
	// Recent only tracks A@20; B@15 precedes it and cannot spoil.
	c.assertSigs(t, "X[A@20 C@30]")
}

func TestNotRecentSpoiledLatest(t *testing.T) {
	c := run(t, "NOT(B)[A, C]", Recent,
		occAt("s1", 10, "A"), occAt("s1", 20, "A"), occAt("s1", 25, "B"), occAt("s1", 30, "C"))
	if len(c.got) != 0 {
		t.Errorf("NOT fired although the retained initiator was spoiled: %v", c.sigs())
	}
}

func TestNotCumulative(t *testing.T) {
	c := run(t, "NOT(B)[A, C]", Cumulative,
		occAt("s1", 10, "A"), occAt("s1", 20, "A"), occAt("s1", 30, "C"))
	c.assertSigs(t, "X[A@10 A@20 C@30]")
}

func TestNotConcurrentSpoilerDoesNotSpoil(t *testing.T) {
	// A spoiler concurrent with the terminator is not strictly inside the
	// open interval (Definition 5.5 needs t2 < t3), so it does not spoil.
	// It is the first (and only) follower of both initiators, and concurrent
	// with both terminators: each initiator still fires.
	c := run(t, "NOT(B)[A, C]", Chronicle,
		occAt("s1", 100, "A"), occAt("s1", 150, "A"), occAt("s2", 205, "B"),
		occAt("s1", 210, "C"), occAt("s1", 212, "C"))
	c.assertSigs(t, "X[A@100 C@210]", "X[A@150 C@212]")
}

func TestNotContinuousConsumesAllClean(t *testing.T) {
	c := run(t, "NOT(B)[A, C]", Continuous,
		occAt("s1", 10, "A"), occAt("s1", 20, "A"), occAt("s1", 30, "C"), occAt("s1", 40, "C"))
	c.assertSigs(t, "X[A@10 C@30]", "X[A@20 C@30]")
}
