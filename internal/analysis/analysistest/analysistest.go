// Package analysistest runs an analyzer over a fixture directory and
// checks its diagnostics against expectations written in the fixture
// itself, in the style of golang.org/x/tools' analysistest:
//
//	_ = time.Now() // want `walltime: time\.Now reads the ambient clock`
//
// A `// want` comment expects exactly one diagnostic on its line whose
// message matches the quoted regular expression (Go-quoted: backquotes
// or double quotes).  Every diagnostic must be wanted and every want
// must be matched.  Fixtures are fully type-checked — against real module
// packages when they import them, through the compiler export data `go
// list -export` reports, as the vet driver does — and diagnostics pass
// through analysis.Run, so the //lint:allow filtering is exercised
// exactly as in production.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/vetmode"
)

// expectation is one `// want` comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run analyzes the fixture directory and reports any mismatch between
// produced diagnostics and `// want` expectations as test errors.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	cfg, err := exportConfig(dir, files)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	pkg, info, err := vetmode.Check(fset, cfg, files)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				w, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", fset.Position(c.Pos()), err)
				}
				if w == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				w.file, w.line = pos.Filename, pos.Line
				wants = append(wants, w)
			}
		}
	}
	diags, err := analysis.Run(a, fset, files, pkg, info)
	if err != nil {
		t.Fatalf("%s on %s: %v", a.Name, dir, err)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if w := match(wants, pos.Filename, pos.Line, d.Message); w != nil {
			w.hit = true
			continue
		}
		t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// parseWant extracts the expectation from a `// want "re"` comment, nil
// if the comment is not a want.  The want may trail another line comment,
// so a directive that is itself the finding can carry its expectation on
// its own line.
func parseWant(text string) (*expectation, error) {
	i := strings.Index(text, "// want ")
	if i < 0 {
		return nil, nil
	}
	rest := strings.TrimSpace(text[i+len("// want "):])
	quoted, err := strconv.Unquote(rest)
	if err != nil {
		return nil, fmt.Errorf("malformed want %s: %v", rest, err)
	}
	re, err := regexp.Compile(quoted)
	if err != nil {
		return nil, fmt.Errorf("bad want pattern %q: %v", quoted, err)
	}
	return &expectation{re: re}, nil
}

// match finds an unmatched expectation on the diagnostic's line whose
// pattern matches the message.
func match(wants []*expectation, file string, line int, msg string) *expectation {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

// parseDir parses every Go file of a fixture directory, in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// exportConfig resolves the fixture's imports the way cmd/go does for the
// vet driver: `go list -export -deps`, run inside the module, names the
// compiler export data of every package the imports reach.
func exportConfig(dir string, files []*ast.File) (*vetmode.Config, error) {
	cfg := &vetmode.Config{
		Compiler:    "gc",
		ImportPath:  "fixture/" + filepath.Base(dir),
		ImportMap:   map[string]string{"unsafe": "unsafe"},
		PackageFile: map[string]string{},
	}
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if _, seen := cfg.ImportMap[path]; !seen {
				cfg.ImportMap[path] = path
				imports = append(imports, path)
			}
		}
	}
	if len(imports) == 0 {
		return cfg, nil
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-json", "-deps"}, imports...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(imports, " "), err, stderr.String())
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		cfg.PackageFile[p.ImportPath] = p.Export
	}
	return cfg, nil
}
