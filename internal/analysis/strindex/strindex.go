// Package strindex enforces the interned-dispatch discipline the PR-9
// compiler established: code reachable from a //sentinel:hotpath root in
// the detector or event packages must not index a map by a string-kinded
// key.  Per-publication dispatch walks dense event.TypeID-indexed route
// and subscriber tables (DESIGN.md §2i); a string-keyed map lookup on
// that path reintroduces per-event hashing and key comparison, which is
// exactly the cost Detector.Publish/PublishBatch were restructured to
// shed — and it tends to creep back in silently, because a map lookup
// reads as innocent.
//
// The rule is structural, not allocation-based: m[k] with a string key
// allocates nothing, so no allocation gate sees it.  Name→ID translation
// is legitimate at the declare/resolve boundary — those sites carry
// //lint:allow strindex with the reason, and the stale-allow audit keeps
// the exception list honest.  A //sentinel:hotpath line that is not in a
// function's doc comment marks nothing and is reported, the way a stale
// allow is: otherwise a declaration slipped between the marker and its
// function disarms the check without a word.
package strindex

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/facts"
	"repro/internal/analysis/interproc"
)

const name = "strindex"

// Analyzer is the interned-dispatch checker.
var Analyzer = &analysis.Analyzer{
	Name:      name,
	Doc:       "forbid string-keyed map indexing in functions reachable from //sentinel:hotpath roots of the dispatch path (detector, event): interned dispatch addresses dense TypeID tables; name lookups belong on the declare/resolve boundary",
	AppliesTo: appliesTo,
	Run:       run,
}

// appliesTo: the packages whose hot roots form the publish/dispatch
// path — the discipline is about dispatch structure, and only these two
// packages own it.
func appliesTo(path string) bool {
	path = facts.NormPath(path)
	for _, p := range []string{
		"repro/internal/detector",
		"repro/internal/event",
	} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, pos := range interproc.DetachedMarkers(pass) {
		pass.Reportf(pos, "strindex: //sentinel:hotpath is not in a function's doc comment, so it marks no root; put it directly above the func it means, or delete it")
	}
	graph := interproc.Graph(pass)
	hot := graph.HotSet()
	for _, n := range graph.Funcs {
		if !hot[n] || pass.Allows.AllowedFunc(name, n.Decl) {
			continue
		}
		fn := n
		ast.Inspect(fn.Decl, func(node ast.Node) bool {
			ie, ok := node.(*ast.IndexExpr)
			if !ok {
				return true
			}
			m, ok := underlyingOf(pass, ie.X).(*types.Map)
			if !ok || !isStringKind(m.Key()) {
				return true
			}
			if pass.Allows.Allowed(name, pass.Fset, ie.Pos()) {
				return true
			}
			pass.Reportf(ie.Pos(),
				"strindex: string-keyed map index (%s) in hot-path function %s (reachable from a //sentinel:hotpath root): dispatch is interned — address a dense table by event.TypeID or core.Site instead, or //lint:allow strindex with why the name lookup must stay",
				types.TypeString(pass.TypeOf(ie.X), types.RelativeTo(pass.Pkg)), fn.Name())
			return true
		})
	}
	return nil
}

// underlyingOf resolves the map operand's underlying type, nil-safe.
func underlyingOf(pass *analysis.Pass, e ast.Expr) types.Type {
	t := pass.TypeOf(e)
	if t == nil {
		return nil
	}
	// Indexing through a map pointer auto-dereferences.
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying()
}

// isStringKind reports whether the key type is string-kinded, through
// named types (core.SiteID is a string: hashing it per event is the same
// bug wearing a type name).
func isStringKind(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
