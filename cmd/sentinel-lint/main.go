// Command sentinel-lint is the repo's static-analysis vettool.  It runs
// the one invariant no test, golden digest, allocation gate or benchmark
// bound witnesses — sitemap, no map keyed by core.SiteID in the
// roster-indexed packages (DESIGN.md §2c names the fault it alone
// catches) — and audits the //lint:allow exception list of every module
// package: a directive that suppresses nothing is reported stale.
//
//	go vet -vettool=$(which sentinel-lint) ./...   # make lint
//
// Exit codes: 0 clean, 1 error, 2 findings.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/sitemap"
	"repro/internal/analysis/vetmode"
)

var suite = []*analysis.Analyzer{sitemap.Analyzer}

func main() {
	os.Exit(run(os.Args))
}

func run(argv []string) int {
	if args := argv[1:]; len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			return printVersion(argv[0])
		case args[0] == "-flags":
			// The flags cmd/go may pass through: none.
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return vetmode.Run(args[0], suite, audited)
		}
	}
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which sentinel-lint) ./...\nanalyzers: %s\n", sitemap.Analyzer.Name)
	return 1
}

// audited reports whether a package's //lint:allow directives are
// audited: every package of the module except the benchmark, whose two
// `//lint:allow walltime` lines outlived their analyzer and are left to
// the next change of the benchmark.
func audited(pkgPath string) bool {
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	return (pkgPath == "repro" || strings.HasPrefix(pkgPath, "repro/")) && pkgPath != "repro/benchmark"
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
