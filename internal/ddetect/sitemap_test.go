package ddetect

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSiteIDKeyedMaps is the repo's one lint rule: ddetect, detector and
// network address per-site state by dense core.Site index, and no other
// witness notices a map keyed by core.SiteID coming back (DESIGN.md §2c).
// A range over one is caught where its type is spelled: no package exports
// one.  The snippets show which shapes fire, then the packages are read.
func TestNoSiteIDKeyedMaps(t *testing.T) {
	const head = "package p\nimport \"repro/internal/core\"\n"
	for _, c := range []struct {
		name  string
		files []string
		want  int
	}{
		{"field", []string{head + "type holder struct{ frontiers map[core.SiteID]int64 }"}, 1},
		{"parameter and its range", []string{head + "func f(m map[core.SiteID]bool) { for range m {} }"}, 1},
		{"result", []string{head + "func f() map[core.SiteID]int { return nil }"}, 1},
		{"var", []string{head + "var off map[core.SiteID]int"}, 1},
		{"composite literal, once an allowed exception", []string{head + "func f() { off := map[core.SiteID]int{}; off[\"z\"] = 1 }"}, 1},
		{"make", []string{head + "func f() { _ = make(map[core.SiteID][]byte, 8) }"}, 1},
		{"named map type", []string{head + "type frontiers map[core.SiteID]int64"}, 1},
		{"reorderer slot through roster.ID", []string{head + "type reorderer struct{ roster *core.Roster; slots map[core.SiteID]int }\n" +
			"func (r *reorderer) slot(from core.Site) int { return r.slots[r.roster.ID(from)] }"}, 1},
		{"renamed import", []string{"package p\nimport c \"repro/internal/core\"\nvar m map[c.SiteID]int"}, 1},
		{"dot import", []string{"package p\nimport . \"repro/internal/core\"\nvar m map[SiteID]int"}, 1},
		{"alias", []string{head + "type sid = core.SiteID\nvar m map[sid]int"}, 1},
		{"defined type", []string{head + "type sid core.SiteID\nvar m map[sid]int"}, 1},
		{"alias of an alias in another file", []string{head + "type sid = core.SiteID", "package p\ntype id = sid\nvar m map[id]int"}, 1},
		{"string-keyed map of ID slices", []string{head + "func f(needers map[string][]core.SiteID) { _ = needers[\"typ\"] }"}, 0},
		{"map keyed by the dense index", []string{head + "var sparse map[core.Site]int64"}, 0},
		{"dense slice by core.Site", []string{head + "func f(r *core.Roster, s core.Site) int64 { return make([]int64, r.Len())[s] }"}, 0},
		{"SiteID of another package", []string{"package p\nimport \"example.com/core\"\nvar m map[core.SiteID]int"}, 0},
		{"own SiteID type", []string{"package p\ntype SiteID string\nvar m map[SiteID]int"}, 0},
	} {
		var files []*ast.File
		for _, src := range c.files {
			files = append(files, parseFile(t, token.NewFileSet(), c.name, src))
		}
		if got := siteIDMaps(files); len(got) != c.want {
			t.Errorf("%s: flagged %d map types, want %d", c.name, len(got), c.want)
		}
	}

	for _, dir := range []string{".", "../detector", "../network"} {
		paths, _ := filepath.Glob(filepath.Join(dir, "*.go")) // only a malformed pattern errs
		fset := token.NewFileSet()
		var files []*ast.File
		for _, p := range paths {
			if !strings.HasSuffix(p, "_test.go") {
				files = append(files, parseFile(t, fset, p, nil))
			}
		}
		if len(files) == 0 {
			t.Fatalf("%s: no source files", dir)
		}
		for _, pos := range siteIDMaps(files) {
			t.Errorf("%s: map keyed by core.SiteID; intern the ID through core.Roster and index a dense []T by core.Site (see reorderer.sources)", fset.Position(pos))
		}
	}
}

func parseFile(t *testing.T, fset *token.FileSet, name string, src any) *ast.File {
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// siteIDMaps returns every map type in one package's files keyed by
// repro/internal/core.SiteID or an alias or definition of it there.
func siteIDMaps(files []*ast.File) []token.Pos {
	coreName := map[*ast.File]string{} // "" where the file does not import core
	for _, f := range files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/core"` {
				coreName[f] = "core"
				if imp.Name != nil {
					coreName[f] = imp.Name.Name
				}
			}
		}
	}
	siteIDs := map[string]bool{}
	isSiteID := func(f *ast.File, e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && x.Name == coreName[f] && e.Sel.Name == "SiteID"
		case *ast.Ident:
			return siteIDs[e.Name] || coreName[f] == "." && e.Name == "SiteID"
		}
		return false
	}
	// Aliases may chain across files: walk until no new one appears.
	for {
		var found []token.Pos
		seen := len(siteIDs)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if isSiteID(f, n.Type) {
						siteIDs[n.Name.Name] = true
					}
				case *ast.MapType:
					if isSiteID(f, n.Key) {
						found = append(found, n.Pos())
					}
				}
				return true
			})
		}
		if len(siteIDs) == seen {
			return found
		}
	}
}
