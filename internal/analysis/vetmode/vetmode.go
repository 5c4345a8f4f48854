// Package vetmode implements the `go vet -vettool` unit-checker protocol
// on the standard library alone — a minimal re-implementation of the
// x/tools unitchecker (which is not vendorable in this build
// environment).
//
// `go vet` type-checks nothing itself: for every package (including test
// variants) it writes a JSON config naming the source files, the import
// map and the compiler export data of every dependency, then invokes the
// vettool with that config file as its sole argument.  Run parses the
// files, type-checks them against the export data via go/importer's gc
// lookup mode, runs every applicable analyzer, and prints findings in
// the standard file:line:col format.  Exit codes follow vet convention:
// 0 clean, 1 operational error, 2 diagnostics reported.
//
// Dependencies are visited in "vetx only" mode, which asks for facts to
// hand to the importers.  The suite exchanges none, so those passes — and
// every package no analyzer reports on and no audit covers — write the
// empty facts file cmd/go expects and return at once.
//
// On an audited package the //lint:allow index is checked after the
// suite runs: directives that suppressed nothing are themselves
// diagnostics (see analysis.StaleAllows), so the exception list cannot
// rot.
package vetmode

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/analysis"
)

// Config is the subset of the JSON schema `go vet` hands the tool that
// the driver reads; field names are fixed by cmd/go (see
// cmd/go/internal/work/exec.go, vetConfig).
type Config struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Run executes the suite for one vet config file and returns the process
// exit code, printing findings to stderr.  audited reports whether a
// package's //lint:allow directives are checked for staleness.
func Run(cfgFile string, suite []*analysis.Analyzer, audited func(pkgPath string) bool) int {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return runConfig(os.Stderr, cfg, suite, audited)
}

func runConfig(w io.Writer, cfg *Config, suite []*analysis.Analyzer, audited func(string) bool) int {
	// cmd/go decorates test variants as "p [p.test]"; analyzer domains
	// and the audit see the plain path.
	path := cfg.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	var reporting []*analysis.Analyzer
	for _, a := range suite {
		if a.AppliesTo == nil || a.AppliesTo(path) {
			reporting = append(reporting, a)
		}
	}
	audit := audited != nil && audited(path)
	if cfg.VetxOnly || (len(reporting) == 0 && !audit) {
		return writeVetx(w, cfg)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(w, cfg)
			}
			fmt.Fprintln(w, err)
			return 1
		}
		files = append(files, f)
	}
	// One allow index per package, shared across the suite so the
	// stale-allow audit sees every analyzer's suppressions.
	allows := analysis.CollectAllows(fset, files)

	exit := 0
	if len(reporting) > 0 {
		pkg, info, err := Check(fset, cfg, files)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(w, cfg)
			}
			fmt.Fprintf(w, "%s: type-check: %v\n", cfg.ImportPath, err)
			return 1
		}
		for _, a := range reporting {
			diags, err := analysis.RunPass(analysis.NewPass(a, fset, files, pkg, info, allows))
			if err != nil {
				fmt.Fprintf(w, "%s: %s: %v\n", cfg.ImportPath, a.Name, err)
				exit = 1
				continue
			}
			for _, d := range diags {
				fmt.Fprintf(w, "%s: %s\n", fset.Position(d.Pos), d.Message)
				exit = 2
			}
		}
	}
	if audit {
		known := make(map[string]bool, len(suite))
		for _, a := range suite {
			known[a.Name] = true
		}
		for _, d := range allows.StaleAllows(known) {
			fmt.Fprintf(w, "%s: %s\n", fset.Position(d.Pos), d.Message)
			exit = 2
		}
	}
	if code := writeVetx(w, cfg); code != 0 {
		return code
	}
	return exit
}

// Check type-checks the parsed files against the dependencies' export
// data named in cfg.
func Check(fset *token.FileSet, cfg *Config, files []*ast.File) (*types.Package, *types.Info, error) {
	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImp.Import(path)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	tcfg := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(cfg.Compiler, runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

// writeVetx writes the empty facts file cmd/go caches for the package's
// importers, if the config asks for one.
func writeVetx(w io.Writer, cfg *Config) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	return 0
}

func readConfig(name string) (*Config, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("vetmode: parsing %s: %v", name, err)
	}
	return cfg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
