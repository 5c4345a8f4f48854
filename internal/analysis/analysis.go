// Package analysis is a minimal, dependency-free static-analysis
// framework in the shape of golang.org/x/tools/go/analysis, built on the
// standard library's go/ast and go/types only (the build environment
// carries no external modules).  It carries the one invariant of the
// repo that no test, golden digest, allocation gate or benchmark bound
// witnesses: sitemap (DESIGN.md §2c names the fault it alone catches).
//
// An Analyzer inspects one type-checked package and reports Diagnostics.
// Two drivers feed analyzers:
//
//   - vetmode implements the `go vet -vettool` unit-checker protocol, so
//     `make lint` runs the suite over every package, with dependency
//     types coming from compiler export data;
//   - analysistest runs an analyzer over an uncompiled fixture directory
//     and matches diagnostics against `// want "regexp"` comments.
//
// Every analyzer honours the escape hatch
//
//	//lint:allow <name>[,<name>...] — <reason>
//
// either on (or immediately above) the offending line, or in the doc
// comment of a function declaration, which exempts the whole function.
// The reason text is mandatory by convention.  Allows are themselves
// audited: a directive that suppresses nothing is reported stale by the
// vet driver (see StaleAllows), so the exception list cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// AppliesTo reports whether the analyzer reports diagnostics for the
	// package with the given import path.  The vet driver consults it;
	// analysistest calls Run directly and bypasses it (fixtures live
	// under synthetic paths).
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Allows indexes the package's //lint:allow directives; never nil.
	// Shared across the analyzers of one package so used-tracking for the
	// stale-allow audit aggregates over the whole suite.
	Allows *Allows

	diags []Diagnostic
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// NewPass assembles a pass sharing the package's allow index; a nil
// allows gets a fresh one, so analyzers never see nil.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, allows *Allows) *Pass {
	if allows == nil {
		allows = CollectAllows(fset, files)
	}
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, Allows: allows}
}

// RunPass executes the pass's analyzer and returns its findings with
// //lint:allow-suppressed diagnostics removed and the rest in position
// order.  Suppressions are recorded on the pass's Allows for the
// stale-allow audit.
func RunPass(pass *Pass) ([]Diagnostic, error) {
	if err := pass.Analyzer.Run(pass); err != nil {
		return nil, err
	}
	kept := pass.diags[:0]
	for _, d := range pass.diags {
		if !pass.Allows.Allowed(pass.Analyzer.Name, pass.Fset, d.Pos) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}

// Run executes one analyzer over one package with a fresh allow index —
// the single-package entry point used by fixtures.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	return RunPass(NewPass(a, fset, files, pkg, info, nil))
}

// Allow is one parsed //lint:allow directive.
type Allow struct {
	Pos   token.Pos
	Names []string
	// FuncLevel marks a directive in a function's doc comment, which
	// exempts the whole body (lo to hi).
	FuncLevel bool
	// TestFile marks a directive in a _test.go file.  Analyzers skip
	// test files, so such a directive can never fire and is excluded
	// from the stale audit rather than reported.
	TestFile bool

	used   bool
	lo, hi token.Pos
}

// Allows indexes a package's //lint:allow directives and tracks which of
// them actually suppressed something.
type Allows struct {
	list  []*Allow
	lines map[lineKey][]*Allow
}

type lineKey struct {
	file string
	line int
}

// CollectAllows scans the files' comments for //lint:allow directives.
func CollectAllows(fset *token.FileSet, files []*ast.File) *Allows {
	s := &Allows{lines: make(map[lineKey][]*Allow)}
	for _, f := range files {
		testFile := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
		// Function-level directives first, so line-level lookup can skip
		// doc comments indexed here.
		funcDoc := make(map[*ast.Comment]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				names := parseAllow(c.Text)
				if len(names) == 0 {
					continue
				}
				funcDoc[c] = true
				s.list = append(s.list, &Allow{
					Pos: c.Pos(), Names: names, FuncLevel: true, TestFile: testFile,
					lo: fd.Pos(), hi: fd.End(),
				})
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if funcDoc[c] {
					continue
				}
				names := parseAllow(c.Text)
				if len(names) == 0 {
					continue
				}
				a := &Allow{Pos: c.Pos(), Names: names, TestFile: testFile}
				s.list = append(s.list, a)
				pos := fset.Position(c.Pos())
				k := lineKey{file: pos.Filename, line: pos.Line}
				s.lines[k] = append(s.lines[k], a)
			}
		}
	}
	sort.Slice(s.list, func(i, j int) bool { return s.list[i].Pos < s.list[j].Pos })
	return s
}

// parseAllow extracts the analyzer names from a //lint:allow comment.
// Accepted forms: "//lint:allow a", "//lint:allow a,b — reason",
// "// lint:allow a -- reason".
func parseAllow(text string) []string {
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(body, "lint:allow") {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(body, "lint:allow"))
	for _, sep := range []string{"--", "—", "–"} {
		if i := strings.Index(rest, sep); i >= 0 {
			rest = rest[:i]
			break
		}
	}
	return strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
}

// Allowed reports whether a diagnostic of the named analyzer at pos is
// suppressed — a line directive on the same or the immediately preceding
// line, or a function-level directive spanning pos — and marks the
// suppressing directive used.
func (s *Allows) Allowed(name string, fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, a := range s.lines[lineKey{file: p.Filename, line: line}] {
			if hasName(a.Names, name) {
				a.used = true
				return true
			}
		}
	}
	for _, a := range s.list {
		if a.FuncLevel && hasName(a.Names, name) && a.lo <= pos && pos < a.hi {
			a.used = true
			return true
		}
	}
	return false
}

func hasName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// StaleAllows reports, after every analyzer of a suite has run against
// this Allows, the directives that suppressed nothing: either they name
// no analyzer that fired, or they name analyzers that do not exist.
// known is the set of valid analyzer names.  Directives in test files
// are skipped — analyzers do not inspect test files, so an allow there
// is inert by design, not rot.
func (s *Allows) StaleAllows(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, a := range s.list {
		if a.TestFile {
			continue
		}
		var unknown []string
		for _, n := range a.Names {
			if !known[n] {
				unknown = append(unknown, n)
			}
		}
		if len(unknown) > 0 {
			out = append(out, Diagnostic{Pos: a.Pos, Message: fmt.Sprintf(
				"staleallow: //lint:allow names unknown analyzer %s (known: see sentinel-lint usage)",
				strings.Join(unknown, ", "))})
			continue
		}
		if !a.used {
			out = append(out, Diagnostic{Pos: a.Pos, Message: fmt.Sprintf(
				"staleallow: //lint:allow %s suppresses no diagnostic — the code it excused has moved on; delete the directive",
				strings.Join(a.Names, ","))})
		}
	}
	return out
}
