// Package mapiter flags range statements over maps in the packages whose
// iteration order can leak into the occurrence stream.
//
// Go randomizes map iteration order per run.  The distributed detector's
// contract is a bit-for-bit deterministic occurrence stream for a given
// seed (internal/ddetect/determinism_test.go): any map
// iteration on the ingest → transport → release → detect → publish path
// that influences event order, bus send order, or emitted output breaks
// that contract in a way no fixed workload reliably catches.  The
// reorderer keeps a sorted id slice next to its map for exactly this
// reason (reorderer.ids); Detector.Definitions sorts before returning.
//
// The analyzer reports on internal/ddetect, internal/detector and
// internal/network — the packages reachable from the detect and publish
// stages — and flags there:
//
//   - every `range` over a map value, whatever expression produces it
//     (identifier, struct field, function result);
//   - every `range` over a map iterator from the maps package
//     (maps.Keys/Values/All), which is the same randomized order wearing
//     an iter.Seq;
//   - every call to a function in *another* package whose exported fact
//     says it transitively ranges over a map (see the facts package):
//     the invariant follows the call graph, so a helper in internal/core
//     or internal/event cannot launder a map iteration into the
//     detect/publish path.
//
// Iterations that provably cannot observe order (draining into a set,
// counting) are annotated //lint:allow mapiter with that argument; an
// allowed function exports no fact.  Test files are exempt: tests assert
// on aggregates and their iteration order feeds no occurrence stream.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/facts"
	"repro/internal/analysis/interproc"
)

const name = "mapiter"

// Analyzer is the mapiter checker.
var Analyzer = &analysis.Analyzer{
	Name:      name,
	Doc:       "flag range-over-map (and map iterators, and calls to functions that transitively iterate maps) in detect/publish-path packages where iteration order can leak into the occurrence stream",
	AppliesTo: appliesTo,
	FactsFor:  factsFor,
	Run:       run,
	Facts:     computeFacts,
}

func appliesTo(path string) bool {
	path = facts.NormPath(path)
	for _, p := range []string{
		"repro/internal/ddetect",
		"repro/internal/detector",
		"repro/internal/network",
	} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// factsFor: every module package computes facts, so the packages feeding
// the detect/publish path carry their summaries with them.
func factsFor(path string) bool {
	path = facts.NormPath(path)
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return false
	}
	return !strings.HasPrefix(path, "repro/internal/analysis") &&
		!strings.HasPrefix(path, "repro/cmd/sentinel-lint")
}

// mapIterKind classifies a range statement's subject, "" if harmless.
func mapIterKind(pass *analysis.Pass, rs *ast.RangeStmt) string {
	t := pass.TypeOf(rs.X)
	if t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			return "range over " + types.TypeString(t, types.RelativeTo(pass.Pkg))
		}
	}
	// Map iterators: ranging over the iter.Seq returned by
	// maps.Keys/Values/All is the same randomized order.  Only the
	// direct call form is recognized; an iterator stored in a variable
	// first escapes this check (and the conservative direction is fine:
	// the helper's own package exports the fact for its callers).
	if call, ok := ast.Unparen(rs.X).(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "maps" {
					switch sel.Sel.Name {
					case "Keys", "Values", "All":
						return "range over maps." + sel.Sel.Name + " iterator"
					}
				}
			}
		}
	}
	return ""
}

type rangeOp struct {
	rs   *ast.RangeStmt
	what string
}

type result struct {
	graph  *interproc.PkgGraph
	direct map[*interproc.FuncNode]string
	ops    map[*interproc.FuncNode][]rangeOp
}

func analyze(pass *analysis.Pass) *result {
	res := &result{
		graph:  interproc.Graph(pass),
		direct: make(map[*interproc.FuncNode]string),
		ops:    make(map[*interproc.FuncNode][]rangeOp),
	}
	for _, n := range res.graph.Funcs {
		if pass.Allows.AllowedFunc(name, n.Decl) {
			continue
		}
		ast.Inspect(n.Decl, func(node ast.Node) bool {
			rs, ok := node.(*ast.RangeStmt)
			if !ok {
				return true
			}
			what := mapIterKind(pass, rs)
			if what == "" || pass.Allows.Allowed(name, pass.Fset, rs.Pos()) {
				return true
			}
			res.ops[n] = append(res.ops[n], rangeOp{rs: rs, what: what})
			if res.direct[n] == "" {
				res.direct[n] = what + " at " + interproc.ShortPos(pass.Fset, rs.Pos())
			}
			return true
		})
	}
	summary := interproc.Propagate(res.graph, pass.Fset, res.direct, func(fn *types.Func) string {
		f, _ := pass.Facts.Lookup(fn)
		return f.MapIter
	}, func(pos token.Pos) bool { return pass.Allows.Allowed(name, pass.Fset, pos) })
	own := pass.Facts.Own(pass.Pkg.Path())
	for n, why := range summary {
		if why == "" {
			continue
		}
		own.Update(facts.Key(n.Obj), func(f *facts.Fact) { f.MapIter = why })
	}
	return res
}

func computeFacts(pass *analysis.Pass) error {
	analyze(pass)
	return nil
}

func run(pass *analysis.Pass) error {
	res := analyze(pass)
	for _, n := range res.graph.Funcs {
		for _, op := range res.ops[n] {
			pass.Reportf(op.rs.Pos(),
				"mapiter: %s in a detect/publish-path package; iteration order is randomized per run — iterate a sorted key slice instead (see reorderer.ids), or //lint:allow mapiter with a proof order cannot be observed",
				op.what)
		}
		// Inherited: calls to out-of-domain module functions whose fact
		// says they transitively iterate a map.
		for _, c := range n.Calls {
			if res.graph.Node(c.Callee) != nil {
				continue
			}
			if pkg := c.Callee.Pkg(); pkg == nil || appliesTo(pkg.Path()) {
				continue
			}
			f, ok := pass.Facts.Lookup(c.Callee)
			if !ok || f.MapIter == "" {
				continue
			}
			pass.Reportf(c.Pos,
				"mapiter: call to %s.%s transitively iterates a map (%s); its order can leak into the occurrence stream — sort before iterating in the callee, or //lint:allow mapiter with a proof",
				c.Callee.Pkg().Name(), c.Callee.Name(), f.MapIter)
		}
	}
	return nil
}
