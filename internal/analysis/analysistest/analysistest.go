// Package analysistest runs an analyzer over a fixture directory and
// checks its diagnostics against expectations written in the fixture
// itself, in the style of golang.org/x/tools' analysistest:
//
//	_ = time.Now() // want `walltime: time\.Now reads the ambient clock`
//
// A `// want` comment expects exactly one diagnostic on its line whose
// message matches the quoted regular expression (Go-quoted: backquotes
// or double quotes).  Every diagnostic must be wanted and every want
// must be matched.  Fixtures are loaded through load.LoadDir, so they
// are fully type-checked — against real module packages when they
// import them — and diagnostics pass through analysis.Run, so the
// //lint:allow filtering is exercised exactly as in production.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
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
	modRoot, err := load.ModuleRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := load.LoadDir(modRoot, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				w, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", pkg.Fset.Position(c.Pos()), err)
				}
				if w == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				w.file, w.line = pos.Filename, pos.Line
				wants = append(wants, w)
			}
		}
	}
	diags, err := analysis.Run(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err != nil {
		t.Fatalf("%s on %s: %v", a.Name, dir, err)
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
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
// if the comment is not a want.  The want may trail another line comment
// (`//sentinel:hotpath // want "re"`), so a directive that is itself the
// finding can carry its expectation on its own line.
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
