package vetmode

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/sitemap"
)

var suite = []*analysis.Analyzer{sitemap.Analyzer}

// TestVetTestVariantNormalized hands the driver a test variant the way
// cmd/go names it, "p [p.test]": the analyzer's domain must see the plain
// path and report, with the dependency's types read from the compiler
// export data `go list -export` names.
func TestVetTestVariantNormalized(t *testing.T) {
	src := filepath.Join(t.TempDir(), "holder.go")
	if err := os.WriteFile(src, []byte("package ddetect\n\nimport \"repro/internal/core\"\n\nvar frontiers map[core.SiteID]int64\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "list", "-export", "-json", "-deps", "repro/internal/core").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	cfg := &Config{
		Compiler:    "gc",
		ImportPath:  "repro/internal/ddetect [repro/internal/ddetect.test]",
		GoVersion:   "go1.24.0",
		GoFiles:     []string{src},
		ImportMap:   map[string]string{"repro/internal/core": "repro/internal/core"},
		PackageFile: map[string]string{},
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		cfg.PackageFile[p.ImportPath] = p.Export
	}
	var diags bytes.Buffer
	if code := runConfig(&diags, cfg, suite, nil); code != 2 {
		t.Fatalf("test-variant pass exited %d, want 2:\n%s", code, diags.String())
	}
	if !strings.Contains(diags.String(), "sitemap: map keyed by core.SiteID") {
		t.Fatalf("test-variant diagnostic missing:\n%s", diags.String())
	}
}

func TestVetxOnlySkipsNonComputingPackages(t *testing.T) {
	// A dependency pass must write an empty vetx and exit clean without
	// parsing anything.
	tmp := t.TempDir()
	vetx := filepath.Join(tmp, "fmt.vetx")
	cfg := &Config{ImportPath: "fmt", VetxOnly: true, VetxOutput: vetx}
	var out bytes.Buffer
	if code := runConfig(&out, cfg, suite, nil); code != 0 {
		t.Fatalf("stdlib facts pass exited %d: %s", code, out.String())
	}
	data, err := os.ReadFile(vetx)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("stdlib vetx should be empty, got %q", data)
	}
}

func TestSucceedOnTypecheckFailure(t *testing.T) {
	tmp := t.TempDir()
	src := filepath.Join(tmp, "broken.go")
	if err := os.WriteFile(src, []byte("package broken\n\nfunc f() { undefinedIdent() }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(tmp, "broken.vetx")
	cfg := &Config{
		Compiler:                  "gc",
		ImportPath:                "repro/internal/ddetect",
		GoVersion:                 "go1.24.0",
		GoFiles:                   []string{src},
		ImportMap:                 map[string]string{},
		PackageFile:               map[string]string{},
		VetxOutput:                vetx,
		SucceedOnTypecheckFailure: true,
	}
	var out bytes.Buffer
	if code := runConfig(&out, cfg, suite, nil); code != 0 {
		t.Fatalf("SucceedOnTypecheckFailure pass exited %d: %s", code, out.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("vetx not written on tolerated type-check failure: %v", err)
	}
}

// TestStaleAllowAudit pins the //lint:allow audit: on an audited package
// a directive naming an analyzer that does not exist, or one that
// suppressed nothing, is a finding; on a package outside the audit it is
// not read at all.
func TestStaleAllowAudit(t *testing.T) {
	src := filepath.Join(t.TempDir(), "allows.go")
	if err := os.WriteFile(src, []byte(`package allows

var a = 1 //lint:allow walltime — names a deleted analyzer

var b = 2 //lint:allow sitemap — suppresses nothing
`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want int
	}{{"repro/internal/obs [repro/internal/obs.test]", 2}, {"repro/benchmark", 0}} {
		cfg := &Config{Compiler: "gc", ImportPath: tc.path, GoVersion: "go1.24.0", GoFiles: []string{src}}
		var out bytes.Buffer
		audited := func(path string) bool { return path != "repro/benchmark" }
		if code := runConfig(&out, cfg, suite, audited); code != tc.want {
			t.Fatalf("%s: exit %d, want %d:\n%s", tc.path, code, tc.want, out.String())
		}
		if tc.want == 0 {
			continue
		}
		for _, want := range []string{"unknown analyzer walltime", "allow sitemap suppresses no diagnostic"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: audit output lacks %q:\n%s", tc.path, want, out.String())
			}
		}
	}
}
