// Package obsfx enforces the observability-layer effect rules of the
// internal/obs tentpole: the obs sinks are the *only* observability
// effects in the detection pipeline's stage code, and obs itself never
// touches ambient time or randomness.
//
// The tentpole's determinism claim — byte-identical occurrence logs and
// span streams with the observability stack on or off — rests on two
// disciplines that compile fine when violated:
//
//   - internal/obs is a pure observer fed simulated time by its callers:
//     it must not import time, math/rand or math/rand/v2 at all.  A
//     time.Now inside a sink would stamp spans with wall time and make
//     every trace diff dirty; a rand call could perturb nothing today
//     and silently start perturbing shared state tomorrow.
//   - stage-context code in internal/ddetect (the five stage drivers,
//     the link coalescer and the publish helpers) reports through obs
//     sinks only: no fmt printing, no log package, no builtin
//     print/println, no direct os.Stdout/os.Stderr writes.  Ad-hoc
//     prints in a crank stage are unsynchronized observability effects —
//     unordered relative to spans and invisible to the flight recorder.
//
// Pure string formatting (fmt.Sprintf, fmt.Errorf) is not an effect and
// stays allowed.  Test files are exempt, like the rest of the suite.
package obsfx

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the obsfx checker.
var Analyzer = &analysis.Analyzer{
	Name:      "obsfx",
	Doc:       "keep internal/obs free of ambient time/randomness and restrict stage-context observability effects to internal/obs sinks",
	AppliesTo: appliesTo,
	Run:       run,
}

func appliesTo(path string) bool {
	return path == "repro/internal/obs" || path == "repro/internal/ddetect"
}

// forbiddenImports are the packages obs must not depend on: all of their
// ambient-time and randomness entry points are off-limits, so the import
// itself is the violation.
var forbiddenImports = map[string]bool{
	"time": true, "math/rand": true, "math/rand/v2": true,
}

// stageReceivers are the ddetect types whose methods constitute stage
// context: the five stage drivers plus the link coalescer the transport
// path runs through.
var stageReceivers = map[string]bool{
	"ingestStage": true, "transportStage": true, "releaseStage": true,
	"detectStage": true, "publishStage": true, "linkCoalescer": true,
}

// stageFuncs are free functions and System methods that execute inside a
// stage's slice of the tick.
var stageFuncs = map[string]bool{
	"forwardComposite": true, "stageNote": true,
}

func run(pass *analysis.Pass) error {
	// Rule set is keyed on the package itself: the obs package gets the
	// import ban, everything else (ddetect; fixtures mirror its receiver
	// names) gets the stage-context effect rules.
	obsPkg := pass.Pkg != nil && pass.Pkg.Name() == "obs"
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		if obsPkg {
			checkObsImports(pass, f)
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !stageContext(fd) {
				continue
			}
			checkStageBody(pass, fd)
		}
	}
	return nil
}

// checkObsImports flags ambient time/randomness imports in package obs.
func checkObsImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if forbiddenImports[path] {
			pass.Reportf(imp.Pos(),
				"obsfx: package obs must not import %q; spans and metrics carry caller-supplied simulated time only (internal/clock microticks)",
				path)
		}
	}
}

// stageContext reports whether fd runs inside a pipeline stage's slice
// of the tick.
func stageContext(fd *ast.FuncDecl) bool {
	if stageFuncs[fd.Name.Name] {
		return true
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && stageReceivers[id.Name]
}

// pureFmt are the fmt functions with no output effect.
func pureFmt(name string) bool {
	return strings.HasPrefix(name, "Sprint") || name == "Errorf" || name == "Appendf" ||
		strings.HasPrefix(name, "Sscan") || strings.HasPrefix(name, "Fscan")
}

func checkStageBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "print" || fun.Name == "println" {
					// Only the predeclared builtins; a local function that
					// shadows the name resolves to *types.Func instead.
					if _, builtin := pass.Info.Uses[fun].(*types.Builtin); builtin {
						pass.Reportf(x.Pos(),
							"obsfx: builtin %s in stage context (in %s); crank stages observe through internal/obs sinks only",
							fun.Name, fd.Name.Name)
					}
				}
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok {
					if pkgName, ok := pass.Info.Uses[id].(*types.PkgName); ok {
						switch pkgName.Imported().Path() {
						case "fmt":
							if !pureFmt(fun.Sel.Name) {
								pass.Reportf(x.Pos(),
									"obsfx: fmt.%s in stage context (in %s); crank stages observe through internal/obs sinks only",
									fun.Sel.Name, fd.Name.Name)
							}
						case "log":
							pass.Reportf(x.Pos(),
								"obsfx: log.%s in stage context (in %s); crank stages observe through internal/obs sinks only",
								fun.Sel.Name, fd.Name.Name)
						}
						return true
					}
				}
			}
		case *ast.SelectorExpr:
			// Direct os.Stdout / os.Stderr references (handed to writers,
			// assigned, …) are output effects however they are used.
			if id, ok := x.X.(*ast.Ident); ok && (x.Sel.Name == "Stdout" || x.Sel.Name == "Stderr") {
				if pkgName, ok := pass.Info.Uses[id].(*types.PkgName); ok && pkgName.Imported().Path() == "os" {
					pass.Reportf(x.Pos(),
						"obsfx: os.%s referenced in stage context (in %s); crank stages observe through internal/obs sinks only",
						x.Sel.Name, fd.Name.Name)
				}
			}
		}
		return true
	})
}
