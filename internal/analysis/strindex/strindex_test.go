package strindex

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "strindex"))
}

func TestDetachedMarker(t *testing.T) {
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "detached"))
}

func TestAppliesTo(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/detector":          true,
		"repro/internal/event":             true,
		"repro/internal/detector [d.test]": true,
		"repro/internal/core":              false,
		"repro/internal/ddetect":           false,
		"repro/internal/workload":          false,
		"repro/internal/analysis":          false,
	} {
		if got := Analyzer.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}
