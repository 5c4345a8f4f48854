//go:build race

package ddetect

// raceEnabled reports whether the race detector is on.  Its
// instrumentation defeats sync.Pool caching, so zero-alloc assertions
// only hold on non-race builds.
const raceEnabled = true
