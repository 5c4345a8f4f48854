// Package analyzers registers the repo's analyzer suite in one place, so
// the sentinel-lint multichecker, the self-lint smoke test and the
// documentation all agree on what "the suite" is.
package analyzers

import (
	"repro/internal/analysis"
	"repro/internal/analysis/mapiter"
	"repro/internal/analysis/obsfx"
	"repro/internal/analysis/poolfx"
	"repro/internal/analysis/sitemap"
	"repro/internal/analysis/stagefx"
	"repro/internal/analysis/stampcmp"
	"repro/internal/analysis/strindex"
	"repro/internal/analysis/walltime"
)

// All returns the full suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		walltime.Analyzer,
		stampcmp.Analyzer,
		mapiter.Analyzer,
		strindex.Analyzer,
		sitemap.Analyzer,
		stagefx.Analyzer,
		poolfx.Analyzer,
		obsfx.Analyzer,
	}
}
