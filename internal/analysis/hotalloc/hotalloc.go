// Package hotalloc enforces the hot-path allocation discipline: code
// reachable from a //sentinel:hotpath root must not execute per-call
// allocating constructs, because those paths run once per event and the
// 16-site e2e benchmark already attributes its ~11k allocs/op to exactly
// such per-occurrence garbage (ROADMAP item 5; PAPERS.md: Vaidya &
// Kulkarni treat per-event stamp allocations as the scaling bottleneck).
//
// Roots are declared, not inferred — the crank stage drivers
// (internal/ddetect/stages.go), the merge kernels (internal/core/merge.go),
// the reorderer, network.Bus send/receive and the detector combination
// paths carry the marker — because the hottest edges (pipeline.Stage
// ticks, pool callbacks) are interface calls no static call graph
// resolves.  From the roots the analyzer closes over same-package static
// calls; cross-package callees contribute through the facts layer: every
// module package exports a per-function allocation summary, and a call
// from a hot function to a function whose summary is non-empty is
// flagged at the call site with the inherited provenance.
//
// Constructs flagged inside hot functions:
//
//   - calls into package fmt (formatting state + interface boxing of
//     every argument);
//   - string concatenation, with a sharper message when an operand is a
//     core.SiteID (keys belong on dense core.Site indexes, see DESIGN.md
//     §2e), and allocating string conversions ([]byte/[]rune ↔ string,
//     numeric → string);
//   - per-call map/slice/chan construction: composite literals and make;
//   - closures capturing loop variables (a fresh variable cell plus a
//     fresh closure every iteration since Go 1.22);
//   - interface boxing of composite timestamps: a core.Stamp or
//     core.SetStamp passed to an interface-typed parameter, field or
//     variable.
//
// One-time lazy initialization, error/panic paths and trace-gated code
// are legitimate; sanction them with //lint:allow hotalloc and the
// reason.  The compiler's own view of the same discipline is gated by
// cmd/escapegate against escape.manifest — this analyzer explains
// violations structurally, the gate catches whatever construct taxonomy
// misses.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/facts"
	"repro/internal/analysis/interproc"
)

const name = "hotalloc"

// Analyzer is the hot-path allocation checker.
var Analyzer = &analysis.Analyzer{
	Name:      name,
	Doc:       "forbid per-call allocating constructs (fmt, string concat, map/slice literals, loop-var closures, stamp boxing) in functions reachable from //sentinel:hotpath roots, interprocedurally via call-graph facts",
	AppliesTo: appliesTo,
	FactsFor:  factsFor,
	Run:       run,
	Facts:     computeFacts,
}

// appliesTo: the packages that declare hot-path roots.
func appliesTo(path string) bool {
	path = facts.NormPath(path)
	for _, p := range []string{
		"repro/internal/core",
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

// factsFor: allocation summaries are computed module-wide so any package
// a hot path calls into carries them.
func factsFor(path string) bool {
	path = facts.NormPath(path)
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return false
	}
	return !strings.HasPrefix(path, "repro/internal/analysis") &&
		!strings.HasPrefix(path, "repro/cmd/sentinel-lint")
}

// alloc is one flagged construct.
type alloc struct {
	pos  token.Pos
	what string
}

type result struct {
	graph *interproc.PkgGraph
	// direct lists each function's flagged constructs, allow-filtered.
	direct map[*interproc.FuncNode][]alloc
}

func analyze(pass *analysis.Pass) *result {
	res := &result{
		graph:  interproc.Graph(pass),
		direct: make(map[*interproc.FuncNode][]alloc),
	}
	for _, n := range res.graph.Funcs {
		if pass.Allows.AllowedFunc(name, n.Decl) {
			continue
		}
		res.direct[n] = collect(pass, n.Decl)
	}
	// Summaries: a function's exported fact is its own constructs, or —
	// when it has none — the first one inherited through its calls.
	rep := make(map[*interproc.FuncNode]string, len(res.graph.Funcs))
	for n, list := range res.direct {
		if len(list) > 0 {
			rep[n] = list[0].what + " at " + interproc.ShortPos(pass.Fset, list[0].pos)
		}
	}
	summary := interproc.Propagate(res.graph, pass.Fset, rep, func(fn *types.Func) string {
		f, _ := pass.Facts.Lookup(fn)
		if len(f.Allocs) == 0 {
			return ""
		}
		return f.Allocs[0]
	}, func(pos token.Pos) bool { return pass.Allows.Allowed(name, pass.Fset, pos) })
	own := pass.Facts.Own(pass.Pkg.Path())
	for _, n := range res.graph.Funcs {
		list := res.direct[n]
		var out []string
		for _, a := range list {
			if len(out) == facts.MaxAllocs {
				break
			}
			out = append(out, a.what+" at "+interproc.ShortPos(pass.Fset, a.pos))
		}
		if len(out) == 0 && summary[n] != "" {
			out = []string{summary[n]}
		}
		if len(out) > 0 {
			own.Update(facts.Key(n.Obj), func(f *facts.Fact) { f.Allocs = out })
		}
	}
	return res
}

func computeFacts(pass *analysis.Pass) error {
	analyze(pass)
	return nil
}

func run(pass *analysis.Pass) error {
	res := analyze(pass)
	hot := res.graph.HotSet()
	for _, n := range res.graph.Funcs {
		if !hot[n] {
			continue
		}
		for _, a := range res.direct[n] {
			pass.Reportf(a.pos,
				"hotalloc: %s in hot-path function %s (reachable from a //sentinel:hotpath root): this allocates per call — hoist, pool or precompute it, or //lint:allow hotalloc with a reason",
				a.what, n.Name())
		}
		for _, c := range n.Calls {
			if res.graph.Node(c.Callee) != nil {
				continue // local callee: itself hot, reported directly
			}
			f, ok := pass.Facts.Lookup(c.Callee)
			if !ok || len(f.Allocs) == 0 {
				continue
			}
			pkg := ""
			if p := c.Callee.Pkg(); p != nil {
				pkg = p.Name() + "."
			}
			pass.Reportf(c.Pos,
				"hotalloc: call to %s%s from hot-path function %s allocates (%s); the hot-path discipline follows the call graph — use an Into/Shared variant, pool in the callee, or //lint:allow hotalloc with a reason",
				pkg, c.Callee.Name(), n.Name(), strings.Join(f.Allocs, "; "))
		}
	}
	return nil
}

// collect walks one function declaration for allocating constructs,
// filtering each through the //lint:allow index (which records the
// suppression for the stale-allow audit).
func collect(pass *analysis.Pass, fd *ast.FuncDecl) []alloc {
	var out []alloc
	add := func(pos token.Pos, format string, args ...any) {
		if pass.Allows.Allowed(name, pass.Fset, pos) {
			return
		}
		out = append(out, alloc{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	loopVars := collectLoopVars(pass, fd)
	ast.Inspect(fd, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			checkCall(pass, node, add)
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringKind(pass.TypeOf(node)) {
				if id := siteIDOperand(pass, node); id != "" {
					add(node.OpPos, "string concatenation of a %s (keys belong on dense core.Site indexes)", id)
				} else {
					add(node.OpPos, "string concatenation")
				}
			}
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN && len(node.Lhs) == 1 && isStringKind(pass.TypeOf(node.Lhs[0])) {
				add(node.TokPos, "string concatenation (+=)")
			}
		case *ast.CompositeLit:
			t := pass.TypeOf(node)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Map:
				add(node.Pos(), "map literal (%s)", types.TypeString(t, types.RelativeTo(pass.Pkg)))
			case *types.Slice:
				add(node.Pos(), "slice literal (%s)", types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
		case *ast.FuncLit:
			if v := capturedLoopVar(pass, node, loopVars); v != "" {
				add(node.Pos(), "closure capturing loop variable %q (a fresh variable cell and closure every iteration)", v)
			}
		}
		return true
	})
	return out
}

// checkCall flags fmt calls, make of map/slice/chan, allocating string
// conversions, and stamp arguments boxed into interface parameters.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	// Conversions: T(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.TypeOf(call.Args[0])
		if from == nil {
			return
		}
		switch {
		case isStringKind(to) && isByteOrRuneSlice(from):
			add(call.Pos(), "%s conversion from %s (copies per call)", types.TypeString(to, types.RelativeTo(pass.Pkg)), from.Underlying())
		case isByteOrRuneSlice(to) && isStringKind(from):
			add(call.Pos(), "%s conversion from string (copies per call)", to.Underlying())
		case isStringKind(to) && isIntegerKind(from):
			add(call.Pos(), "string conversion of an integer (allocates, and almost never what a hot path means — did you want the roster's SiteID?)")
		}
		return
	}
	// fmt calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				add(call.Pos(), "fmt.%s call (formatting state plus boxing of every argument)", sel.Sel.Name)
				return
			}
		}
	}
	// make(map/slice/chan).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(call.Args) > 0 {
			if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.IsType() {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					add(call.Pos(), "make of %s", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
				case *types.Slice:
					add(call.Pos(), "make of %s", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
				case *types.Chan:
					add(call.Pos(), "make of %s", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
				}
			}
			return
		}
	}
	// Stamp boxing: a core.Stamp/core.SetStamp argument bound to an
	// interface-typed parameter.
	sig, _ := pass.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		at := pass.TypeOf(arg)
		if !isStampType(at) {
			continue
		}
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
			pt = sig.Params().At(min(i, sig.Params().Len()-1)).Type()
		case sig.Variadic():
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if types.IsInterface(pt) {
			add(arg.Pos(), "%s boxed into an interface parameter (per-call heap copy of the stamp)", types.TypeString(at, types.RelativeTo(pass.Pkg)))
		}
	}
}

// collectLoopVars gathers the objects declared as range/for loop
// variables anywhere in the declaration.
func collectLoopVars(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	def := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	ast.Inspect(fd, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.RangeStmt:
			if node.Tok == token.DEFINE {
				if node.Key != nil {
					def(node.Key)
				}
				if node.Value != nil {
					def(node.Value)
				}
			}
		case *ast.ForStmt:
			if init, ok := node.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					def(lhs)
				}
			}
		}
		return true
	})
	return vars
}

// capturedLoopVar returns the name of a loop variable the literal
// captures (declared outside the literal, used inside), "" if none.
func capturedLoopVar(pass *analysis.Pass, lit *ast.FuncLit, loopVars map[types.Object]bool) string {
	if len(loopVars) == 0 {
		return ""
	}
	found := ""
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || !loopVars[obj] {
			return true
		}
		// Declared outside the literal?
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			found = id.Name
		}
		return true
	})
	return found
}

func isStringKind(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerKind(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isStampType reports whether t is core.Stamp or core.SetStamp.
func isStampType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "repro/internal/core" {
		return false
	}
	return obj.Name() == "Stamp" || obj.Name() == "SetStamp"
}

// siteIDOperand reports whether either concat operand is a core.SiteID.
func siteIDOperand(pass *analysis.Pass, be *ast.BinaryExpr) string {
	for _, e := range []ast.Expr{be.X, be.Y} {
		if n, ok := pass.TypeOf(e).(*types.Named); ok {
			obj := n.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/core" && obj.Name() == "SiteID" {
				return "core.SiteID"
			}
		}
	}
	return ""
}
