// Package interproc gives analyzers a conservative per-package view of
// the call graph, the bridge between one package's syntax and the
// module-wide facts layer (see the facts package):
//
//   - Graph collects every non-test function declaration with its
//     statically resolvable call sites (direct calls and method calls
//     with a concrete receiver; calls through function values and
//     interfaces are invisible to it, which is why hot-path roots are
//     declared explicitly rather than inferred);
//   - HotSet closes the //sentinel:hotpath root markers over those local
//     calls, yielding the functions that inherit the hot-path
//     discipline, and DetachedMarkers finds the marker lines that mark
//     no function;
//   - Propagate runs the bottom-up fixpoint that turns direct findings
//     plus callee facts into per-function summaries, the thing each
//     analyzer exports for its dependents.
//
// The conservatism cuts the sound direction for this suite's use: a
// dynamic call that escapes the graph can only *hide* a violation, never
// invent one.
package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// HotMarker is the magic comment that declares a function a hot-path
// root: every function it can reach through static calls inherits the
// hot-path discipline of the analyzers that read HotSet.
const HotMarker = "sentinel:hotpath"

// Call is one statically resolved call site.
type Call struct {
	Pos    token.Pos
	Callee *types.Func
}

// FuncNode is one function declaration and its outgoing static calls.
type FuncNode struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
	// Calls holds the statically resolvable call sites in source order,
	// both intra-package and cross-package.
	Calls []Call
	// Hot marks a declared //sentinel:hotpath root.
	Hot bool
}

// Name renders the node for diagnostics: "F" or "T.M".
func (n *FuncNode) Name() string {
	if n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return n.Decl.Name.Name
	}
	t := n.Decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + n.Decl.Name.Name
	}
	return n.Decl.Name.Name
}

// PkgGraph is the package's function set with static call edges.
type PkgGraph struct {
	Funcs []*FuncNode
	byObj map[*types.Func]*FuncNode
}

// Node resolves a function object to its node, nil for functions outside
// the graph (other packages, test files, function literals).
func (g *PkgGraph) Node(obj *types.Func) *FuncNode { return g.byObj[obj] }

// Graph builds the call graph over the pass's non-test files.  Function
// literals are folded into their enclosing declaration: a call made
// inside a closure is attributed to the function that created the
// closure, which over-approximates reachability in exactly the direction
// the analyzers need.
func Graph(pass *analysis.Pass) *PkgGraph {
	g := &PkgGraph{byObj: make(map[*types.Func]*FuncNode)}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Decl: fd, Obj: obj, Hot: hasHotMarker(fd)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := StaticCallee(pass.Info, call); callee != nil {
					node.Calls = append(node.Calls, Call{Pos: call.Pos(), Callee: callee})
				}
				return true
			})
			g.Funcs = append(g.Funcs, node)
			g.byObj[obj] = node
		}
	}
	return g
}

// StaticCallee resolves a call expression to the *types.Func it must
// invoke, or nil for dynamic calls, builtins and conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// A method call through an interface receiver has no
				// static callee.
				if types.IsInterface(recvType(sel)) {
					return nil
				}
				return fn
			}
			return nil
		}
		// Qualified package function: pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func recvType(sel *types.Selection) types.Type {
	t := sel.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}

// hasHotMarker reports whether the declaration's doc comment carries the
// //sentinel:hotpath directive.
func hasHotMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if isHotMarker(c) {
			return true
		}
	}
	return false
}

func isHotMarker(c *ast.Comment) bool {
	body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	return body == HotMarker || strings.HasPrefix(body, HotMarker+" ")
}

// DetachedMarkers returns the //sentinel:hotpath lines of the pass's
// non-test files that are not in a function declaration's doc comment —
// above a declaration of another kind, separated from the function by
// one, or inside a body.  Such a line marks no root, so without a report
// the function its author meant would silently fall out of the hot set.
func DetachedMarkers(pass *analysis.Pass) []token.Pos {
	var out []token.Pos
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		attached := make(map[*ast.CommentGroup]bool)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				attached[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			if attached[cg] {
				continue
			}
			for _, c := range cg.List {
				if isHotMarker(c) {
					out = append(out, c.Pos())
				}
			}
		}
	}
	return out
}

// HotSet closes the package's //sentinel:hotpath roots over local static
// calls: the returned set holds every function in the graph reachable
// from a root, roots included.  Cross-package reachability is not walked
// here — a callee in another package contributes through its exported
// facts at the call site instead.
func (g *PkgGraph) HotSet() map[*FuncNode]bool {
	hot := make(map[*FuncNode]bool)
	var visit func(n *FuncNode)
	visit = func(n *FuncNode) {
		if hot[n] {
			return
		}
		hot[n] = true
		for _, c := range n.Calls {
			if callee := g.byObj[c.Callee]; callee != nil {
				visit(callee)
			}
		}
	}
	for _, n := range g.Funcs {
		if n.Hot {
			visit(n)
		}
	}
	return hot
}

// Propagate computes the transitive single-finding summary for every
// function in the graph: direct[n] if the function itself violates, else
// the provenance inherited from the first callee — local (fixpoint over
// the package) or external (resolved through the external lookup, i.e.
// imported facts) — that does.  Calls the allowed filter sanctions (a
// //lint:allow on the call line) do not propagate: the directive covers
// the call, so the caller inherits nothing through it.  The result maps
// every node to its summary string, "" meaning clean.
func Propagate(g *PkgGraph, fset *token.FileSet, direct map[*FuncNode]string, external func(*types.Func) string, allowed func(token.Pos) bool) map[*FuncNode]string {
	out := make(map[*FuncNode]string, len(g.Funcs))
	for _, n := range g.Funcs {
		out[n] = direct[n]
	}
	// External facts are stable during the fixpoint; resolve them once.
	for _, n := range g.Funcs {
		if out[n] != "" {
			continue
		}
		for _, c := range n.Calls {
			if g.byObj[c.Callee] != nil || (allowed != nil && allowed(c.Pos)) {
				continue
			}
			if why := external(c.Callee); why != "" {
				out[n] = calledVia(fset, c, why)
				break
			}
		}
	}
	// Local fixpoint: inherit from in-package callees until stable.  The
	// summary is monotone (set once, never cleared), so this terminates
	// in at most |Funcs| rounds even with recursion.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Funcs {
			if out[n] != "" {
				continue
			}
			for _, c := range n.Calls {
				callee := g.byObj[c.Callee]
				if callee == nil || out[callee] == "" || (allowed != nil && allowed(c.Pos)) {
					continue
				}
				out[n] = calledVia(fset, c, out[callee])
				changed = true
				break
			}
		}
	}
	return out
}

// calledVia prefixes a callee's summary with the call-site hop, keeping
// the chain readable while bounding its growth.
func calledVia(fset *token.FileSet, c Call, why string) string {
	name := c.Callee.Name()
	if pkg := c.Callee.Pkg(); pkg != nil {
		name = pkg.Name() + "." + name
	}
	// Collapse nested hops: keep the first hop and the root cause.
	if i := strings.Index(why, " via "); i >= 0 {
		if j := strings.LastIndex(why, ": "); j > i {
			why = why[j+2:]
		}
	}
	return "via " + name + " (" + ShortPos(fset, c.Pos) + "): " + why
}

// ShortPos renders file:line with the directory stripped, for the
// compact provenance strings carried in facts and diagnostics.
func ShortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}
