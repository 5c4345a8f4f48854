// Command sentinel-lint is the repo's static-analysis multichecker: it
// mechanically enforces the determinism and timestamp-semantics
// invariants the detection engine's correctness argument rests on.  The
// suite is analyzers.All() (internal/analysis/analyzers); DESIGN.md §2c
// states each analyzer's rule and what it has caught, and the usage line
// prints the names.
//
// Both drivers audit the //lint:allow exception list: a directive that
// suppresses nothing is reported stale.  `sentinel-lint -allows ./...`
// prints the full audit table — every directive with its analyzers,
// reason and whether it still suppresses anything.
//
// Two modes:
//
//	go vet -vettool=$(which sentinel-lint) ./...   # vet protocol (make lint)
//	sentinel-lint [-allows] ./...                  # standalone, non-test files
//
// The vet mode covers test variants too and is what CI runs; standalone
// mode type-checks the module in-process, walking packages in dependency
// order with one shared fact set, and exists for ad-hoc runs, the allow
// audit and the self-lint smoke test.  Exit codes: 0 clean, 1 error,
// 2 findings.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzers"
	"repro/internal/analysis/facts"
	"repro/internal/analysis/load"
	"repro/internal/analysis/vetmode"
)

func main() {
	os.Exit(run(os.Args))
}

func run(argv []string) int {
	suite := analyzers.All()
	args := argv[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			return printVersion(argv[0])
		case args[0] == "-flags":
			vetmode.PrintFlags(os.Stdout)
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return vetmode.Run(args[0], suite)
		}
	}
	audit := false
	if len(args) > 0 && args[0] == "-allows" {
		audit = true
		args = args[1:]
	}
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: sentinel-lint [-allows] ./...  (or as go vet -vettool)\nanalyzers: %s\n",
			strings.Join(vetmode.SortedNames(suite), ", "))
		return 1
	}
	return standalone(args, suite, audit)
}

// printVersion answers the -V=full probe cmd/go uses to build a cache
// key for the tool: "<argv0> version devel ... buildID=<content hash>",
// so a rebuilt linter invalidates cached vet results.
func printVersion(argv0 string) int {
	f, err := os.Open(argv0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", argv0, h.Sum(nil)[:24])
	return 0
}

// standalone loads the module packages matching the patterns and runs
// the suite in-process: one dependency-ordered walk, one shared fact
// set, one allow index per package shared across analyzers.  With audit
// set it prints the //lint:allow table instead of diagnostics.
func standalone(patterns []string, suite []*analysis.Analyzer, audit bool) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	root, err := load.ModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := load.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	set, exit := facts.NewSet(), 0
	type auditRow struct {
		pkg string
		a   *analysis.Allow
	}
	var auditRows []auditRow
	for _, pkg := range pkgs {
		allows := analysis.CollectAllows(pkg.Fset, pkg.Files)
		reported := false
		for _, a := range suite {
			applies := a.AppliesTo == nil || a.AppliesTo(pkg.Path)
			computes := a.Facts != nil && a.FactsFor != nil && a.FactsFor(pkg.Path)
			if !applies && !computes {
				continue
			}
			pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, set, allows)
			if !applies {
				if err := a.Facts(pass); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %s: %v\n", pkg.Path, a.Name, err)
					exit = 1
				}
				continue
			}
			reported = true
			diags, err := analysis.RunPass(pass)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %s: %v\n", pkg.Path, a.Name, err)
				exit = 1
				continue
			}
			if audit {
				continue
			}
			for _, d := range diags {
				fmt.Fprintf(os.Stderr, "%s: %s\n", pkg.Fset.Position(d.Pos), d.Message)
				if exit == 0 {
					exit = 2
				}
			}
		}
		if audit {
			for _, a := range allows.All() {
				auditRows = append(auditRows, auditRow{pkg: pkg.Path, a: a})
			}
		} else if reported {
			for _, d := range allows.StaleAllows(known) {
				fmt.Fprintf(os.Stderr, "%s: %s\n", pkg.Fset.Position(d.Pos), d.Message)
				if exit == 0 {
					exit = 2
				}
			}
		}
	}
	if audit {
		w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(w, "LOCATION\tANALYZERS\tSCOPE\tSTATUS\tREASON")
		for _, row := range auditRows {
			scope := "line"
			if row.a.FuncLevel {
				scope = "func " + row.a.Func
			}
			status := "active"
			switch {
			case row.a.TestFile:
				status = "test-file"
			case !row.a.Used():
				status = "STALE"
			}
			reason := row.a.Reason
			if reason == "" {
				reason = "(no reason given)"
			}
			fmt.Fprintf(w, "%s:%d\t%s\t%s\t%s\t%s\n",
				row.a.File, row.a.Line, strings.Join(row.a.Names, ","), scope, status, reason)
		}
		w.Flush()
		fmt.Printf("%d directives\n", len(auditRows))
	}
	return exit
}
