// Package stagefx enforces the staged-pipeline effect rules of PR 1
// (shared effects on the crank goroutine only) and PR 4 (bus traffic
// through the transport-flush paths only).
//
// The parallel detect stage is only deterministic because workers confine
// their writes to per-site state and every shared effect — messages onto
// the network.Bus (whose seeded RNG makes send *order* part of the
// schedule), System.Stats counters, user handler invocation — happens on
// the crank goroutine in site-ID order (see the file comment of
// internal/ddetect/stages.go).  A bus send or stats increment added to
// detect-stage code compiles fine, usually even passes -race with one
// worker, and silently makes results depend on goroutine scheduling.
// Since PR 4 the bus contract is narrower still: a tick's traffic is
// coalesced per link, so a stray direct send anywhere else would bypass
// the batching (skewing the one-draw-per-link delivery schedule that
// makes batched and unbatched runs byte-identical).
//
// The analyzer inspects internal/ddetect and flags:
//
//   - calls to the Bus send methods (SendBatchSite / SendUnbatchedSite)
//     outside methods of linkCoalescer — the flush is the one place
//     application traffic meets the bus;
//   - calls to the Bus drain method (DrainDue) outside methods of
//     transportStage — the one designated consumer;
//   - writes to fields of ddetect.Stats and calls of detector.Handler
//     values (subscriber fan-out) outside the publish stage (methods of
//     publishStage and the System.forwardComposite helper it drives).
//
// The other single-threaded crank stages (ingest, transport, release)
// mutate counters by design, before the detect barrier; each carries a
// function-level //lint:allow stagefx stating that argument, so the
// exemption is visible where the code is.  Test files are exempt.
package stagefx

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the stagefx checker.
var Analyzer = &analysis.Analyzer{
	Name:      "stagefx",
	Doc:       "restrict bus sends, subscriber fan-out and Stats mutation to the publish stage of the detection pipeline (PR-1 determinism rule)",
	AppliesTo: appliesTo,
	Run:       run,
}

func appliesTo(path string) bool {
	return path == "repro/internal/ddetect"
}

// methodOf reports whether fd is a method of the named receiver type.
func methodOf(fd *ast.FuncDecl, recv string) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == recv
}

// publishContext reports whether fd is part of the publish stage: a
// method of publishStage, or the forwardComposite helper the publish
// stage calls for hierarchical forwarding.
func publishContext(fd *ast.FuncDecl) bool {
	return fd.Name.Name == "forwardComposite" || methodOf(fd, "publishStage")
}

// named reports whether t (behind pointers) is the named type
// <pkgSuffix>.<name>.
func named(t types.Type, pkgSuffix, name string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// busSenders are the Bus methods that enqueue traffic (and advance the
// bus's seeded RNG): linkCoalescer-flush-only since PR 4.  busDrainers
// dequeue traffic: transportStage-only.  Read-only accessors are not
// effects.
var (
	busSenders  = map[string]bool{"SendBatchSite": true, "SendUnbatchedSite": true}
	busDrainers = map[string]bool{"DrainDue": true}
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if name := pass.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	publish := publishContext(fd)
	sender := methodOf(fd, "linkCoalescer")
	drainer := methodOf(fd, "transportStage")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && (busSenders[sel.Sel.Name] || busDrainers[sel.Sel.Name]) {
				if t := pass.TypeOf(sel.X); t != nil && named(t, "internal/network", "Bus") {
					switch {
					case busSenders[sel.Sel.Name] && !sender:
						pass.Reportf(x.Pos(),
							"stagefx: Bus.%s outside the coalescer flush (in %s); all bus traffic goes through linkCoalescer so a tick's envelopes share one per-link frame and delay draw",
							sel.Sel.Name, fd.Name.Name)
					case busDrainers[sel.Sel.Name] && !drainer:
						pass.Reportf(x.Pos(),
							"stagefx: Bus.%s outside the transport stage (in %s); the transport stage is the bus's one designated consumer",
							sel.Sel.Name, fd.Name.Name)
					}
				}
			}
			if !publish {
				if t := pass.TypeOf(x.Fun); t != nil && named(t, "internal/detector", "Handler") {
					pass.Reportf(x.Pos(),
						"stagefx: subscriber fan-out (detector.Handler call) outside the publish stage (in %s)",
						fd.Name.Name)
				}
			}
		case *ast.AssignStmt:
			if publish {
				break
			}
			for _, lhs := range x.Lhs {
				if statsWrite(pass, lhs) {
					pass.Reportf(x.Pos(),
						"stagefx: Stats mutation outside the publish stage (in %s); counters are shared state, updated on the crank goroutine only",
						fd.Name.Name)
					break
				}
			}
		case *ast.IncDecStmt:
			if !publish && statsWrite(pass, x.X) {
				pass.Reportf(x.Pos(),
					"stagefx: Stats mutation outside the publish stage (in %s); counters are shared state, updated on the crank goroutine only",
					fd.Name.Name)
			}
		}
		return true
	})
}

// statsWrite reports whether e is (or contains, as a selection chain) a
// field of a *shared* ddetect.Stats value.  Writes into a Stats that is
// itself a plain local variable (a snapshot being assembled, as in
// System.Stats) mutate nothing shared and are not effects.
func statsWrite(pass *analysis.Pass, e ast.Expr) bool {
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if t := pass.TypeOf(sel.X); t != nil && named(t, "internal/ddetect", "Stats") {
			if id, ok := sel.X.(*ast.Ident); ok {
				if v, ok := pass.Info.ObjectOf(id).(*types.Var); ok && !v.IsField() {
					return false // local snapshot copy
				}
			}
			return true
		}
		e = sel.X
	}
}
