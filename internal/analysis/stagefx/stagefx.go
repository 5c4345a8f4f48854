// Package stagefx enforces the bus-traffic confinement rule of PR 4: in
// internal/ddetect, application traffic meets the network.Bus in exactly
// two places.
//
// The bus's seeded RNG makes send *order* part of the delivery schedule,
// and a tick's traffic is coalesced per link, so a stray direct send
// anywhere else would bypass the batching (skewing the one-draw-per-link
// delivery schedule that makes batched and unbatched runs
// byte-identical); the drain side has one designated consumer for the
// same reason — what a tick delivers is decided in one place.
//
// The analyzer flags:
//
//   - calls to the Bus send methods (SendBatchSite / SendUnbatchedSite)
//     outside methods of linkCoalescer — the flush is the one place
//     application traffic meets the bus;
//   - calls to the Bus drain method (DrainDue) outside methods of
//     transportStage — the one designated consumer.
//
// Test files are exempt.
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
	Doc:       "restrict bus sends to the link coalescer and bus drains to the transport stage of the detection pipeline (PR-4 batching rule)",
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
	sender := methodOf(fd, "linkCoalescer")
	drainer := methodOf(fd, "transportStage")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !(busSenders[sel.Sel.Name] || busDrainers[sel.Sel.Name]) {
			return true
		}
		if t := pass.TypeOf(sel.X); t == nil || !named(t, "internal/network", "Bus") {
			return true
		}
		switch {
		case busSenders[sel.Sel.Name] && !sender:
			pass.Reportf(call.Pos(),
				"stagefx: Bus.%s outside the coalescer flush (in %s); all bus traffic goes through linkCoalescer so a tick's envelopes share one per-link frame and delay draw",
				sel.Sel.Name, fd.Name.Name)
		case busDrainers[sel.Sel.Name] && !drainer:
			pass.Reportf(call.Pos(),
				"stagefx: Bus.%s outside the transport stage (in %s); the transport stage is the bus's one designated consumer",
				sel.Sel.Name, fd.Name.Name)
		}
		return true
	})
}
