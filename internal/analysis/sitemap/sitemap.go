// Package sitemap forbids maps keyed by core.SiteID in the packages that
// run on the hot detect/transport path.
//
// PR 6 interned site identity: the roster (core.Roster) assigns every
// member a dense core.Site index at seal, and ddetect, network and the
// detector address per-site state with roster-indexed slices — O(1)
// access with no string hashing, and iteration over 0..Len()-1 is
// automatically in canonical site-ID order.  A `map[core.SiteID]`
// re-introduces a string hash per lookup and a map's memory per holder,
// and invites randomized-order iteration on paths whose output must be
// bit-for-bit deterministic (the determinism goldens catch such a range
// once it changes an output; nothing else catches the map).
//
// This is the only invariant of the tree no other witness holds: a
// reorderer that finds its source slot through a map[core.SiteID]int —
// the shape the dense roster replaced — passes every test, golden digest
// and allocation gate, moves no time metric of the system benchmark beyond
// its run-to-run spread, and shows only as a deterministic +0.002 MB of
// retained heap on tenants1k, far inside the benchmark's 5 % bound.
//
// The analyzer flags every map type whose key is core.SiteID — in
// declarations, struct fields, parameters, composite literals and
// make() calls — plus every `range` over such a map, in
// internal/ddetect, internal/detector and internal/network.  String-keyed
// maps holding []core.SiteID values (e.g. the pre-seal needers registry)
// are fine; so are maps keyed by the dense core.Site when sparseness
// genuinely beats a slice — annotate those //lint:allow sitemap with the
// argument.  Test files are exempt: tests may build small ID-keyed sets
// for assertions.
package sitemap

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the sitemap checker.
var Analyzer = &analysis.Analyzer{
	Name:      "sitemap",
	Doc:       "forbid map[core.SiteID] in roster-indexed packages (ddetect, detector, network); intern through core.Roster and use dense slices",
	AppliesTo: appliesTo,
	Run:       run,
}

func appliesTo(path string) bool {
	for _, p := range []string{
		"repro/internal/ddetect",
		"repro/internal/detector",
		"repro/internal/network",
	} {
		if path == p || strings.HasPrefix(path, p+"/") || strings.HasPrefix(path, p+"_test") {
			return true
		}
	}
	return false
}

// isSiteID reports whether t is the named type repro/internal/core.SiteID.
// The fixture package imports core through its own module path, so the
// match is on the "internal/core" path suffix plus the type name.
func isSiteID(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "SiteID" || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "internal/core" || strings.HasSuffix(p, "/internal/core")
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if name := pass.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				kt := pass.TypeOf(n.Key)
				if kt != nil && isSiteID(kt) {
					pass.Reportf(n.Pos(),
						"sitemap: map keyed by core.SiteID; intern the ID through core.Roster at seal and index a dense []T by core.Site instead (see reorderer.sources), or //lint:allow sitemap with why a sparse string-keyed map is required")
				}
			case *ast.RangeStmt:
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				if m, ok := t.Underlying().(*types.Map); ok && isSiteID(m.Key()) {
					pass.Reportf(n.Pos(),
						"sitemap: ranging over a map keyed by core.SiteID; iterate roster indexes 0..Len()-1 instead — that order is the canonical site-ID order by construction")
				}
			}
			return true
		})
	}
	return nil
}
