// Package facts is the serialized interprocedural layer of the analysis
// framework: per-package summaries of what each function transitively
// does, computed bottom-up in dependency order and carried between
// packages by the driver.
//
// Under the `go vet` unit-checker protocol (see vetmode) a package's
// facts travel as the vetx file named by Config.VetxOutput, and the facts
// of its dependencies arrive through Config.PackageVetx.  Because cmd/go
// only hands a tool the vetx files of a package's *direct* imports, every
// export re-emits the imported facts alongside the package's own — the
// transitive closure reaches each consumer through its first-hop deps.
// The standalone driver (cmd/sentinel-lint via load) mirrors the same
// flow in process: one Set lives across the whole walk, each package's
// own facts sealed into the imported view before its dependents run.
//
// A Fact is deliberately a summary, not a proof tree: one provenance
// string per invariant ("range over map[uint64][]envelope at
// reorder.go:204", or "via sim.Tick (sim.go:31): time.Now at
// clock.go:42") — enough for an actionable diagnostic at the call
// site that inherits it, cheap enough to serialize for every function in
// the module.  Functions with an empty Fact are simply absent.
package facts

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// Fact is the exported summary of one function.  An empty string means
// "no finding"; a non-empty field carries the provenance of one
// representative violation reachable from the function.
type Fact struct {
	// Walltime: the function transitively reads ambient time or the
	// package-global math/rand state.
	Walltime string `json:"walltime,omitempty"`
	// MapIter: the function transitively ranges over a map (or a map
	// iterator), so its behaviour can depend on randomized map order.
	MapIter string `json:"mapiter,omitempty"`
}

// Empty reports whether the fact carries no finding at all.
func (f Fact) Empty() bool {
	return f.Walltime == "" && f.MapIter == ""
}

// Pkg maps function keys (see Key) to their facts, for one package.
type Pkg map[string]Fact

// Update applies fn to the fact under key, storing the result unless it
// is still empty.
func (p Pkg) Update(key string, fn func(*Fact)) {
	f := p[key]
	fn(&f)
	if f.Empty() {
		delete(p, key)
		return
	}
	p[key] = f
}

// Set is the cross-package fact store a driver threads through one walk:
// the imported view (facts of already-analyzed packages) plus the facts
// being computed for the current package.
type Set struct {
	imported map[string]Pkg // normalized package path → facts
	own      map[string]Pkg
}

// NewSet returns an empty store.
func NewSet() *Set {
	return &Set{imported: make(map[string]Pkg), own: make(map[string]Pkg)}
}

// NormPath strips the test-variant decoration cmd/go appends to import
// paths ("p [p.test]" → "p"), so facts computed for a variant and lookups
// against the plain path agree.
func NormPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// Key names a function within its package: "F" for a package-level
// function, "T.M" for a method with receiver type T (pointerness
// ignored — a *T method and a T method cannot collide in Go).
func Key(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name() + "." + fn.Name()
	case *types.Alias:
		return t.Obj().Name() + "." + fn.Name()
	default:
		return fn.Name()
	}
}

// Own returns the fact map being built for pkgPath (normalized),
// creating it on first use.
func (s *Set) Own(pkgPath string) Pkg {
	path := NormPath(pkgPath)
	p, ok := s.own[path]
	if !ok {
		p = make(Pkg)
		s.own[path] = p
	}
	return p
}

// Lookup resolves a function object to its fact: the current package's
// own facts shadow the imported view, so intra-walk lookups during a
// package's analysis see what was just computed.
func (s *Set) Lookup(fn *types.Func) (Fact, bool) {
	if fn == nil || fn.Pkg() == nil {
		return Fact{}, false
	}
	path, key := NormPath(fn.Pkg().Path()), Key(fn)
	if p, ok := s.own[path]; ok {
		if f, ok := p[key]; ok {
			return f, true
		}
	}
	if p, ok := s.imported[path]; ok {
		if f, ok := p[key]; ok {
			return f, true
		}
	}
	return Fact{}, false
}

// Seal moves the own facts into the imported view, readying the set for
// the next package of an in-process dependency-order walk.
func (s *Set) Seal() {
	for path, p := range s.own {
		s.mergeImported(path, p)
	}
	s.own = make(map[string]Pkg)
}

func (s *Set) mergeImported(path string, p Pkg) {
	dst, ok := s.imported[path]
	if !ok {
		s.imported[path] = p
		return
	}
	for k, f := range p {
		dst[k] = f
	}
}

// wireSet is the serialized layout: package path → function key → fact.
type wireSet map[string]Pkg

// ExportData serializes the full view — imported facts re-exported next
// to the current package's own — as this package's vetx payload.
func (s *Set) ExportData() ([]byte, error) {
	w := make(wireSet, len(s.imported)+len(s.own))
	for path, p := range s.imported {
		if len(p) > 0 {
			w[path] = p
		}
	}
	for path, p := range s.own {
		if len(p) == 0 {
			continue
		}
		if prev, ok := w[path]; ok {
			merged := make(Pkg, len(prev)+len(p))
			for k, f := range prev {
				merged[k] = f
			}
			for k, f := range p {
				merged[k] = f
			}
			w[path] = merged
			continue
		}
		w[path] = p
	}
	return json.Marshal(w)
}

// ImportData merges one dependency's vetx payload into the imported
// view.  Empty payloads (packages that export no facts — the stdlib, or
// a suite predating the facts layer) are accepted silently.
func (s *Set) ImportData(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var w wireSet
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("facts: decoding: %v", err)
	}
	for path, p := range w {
		s.mergeImported(NormPath(path), p)
	}
	return nil
}

// Dump renders the imported+own view as sorted "path key fact" lines,
// for tests and debugging.
func (s *Set) Dump() string {
	var lines []string
	emit := func(path string, p Pkg) {
		for k, f := range p {
			parts := []string{}
			if f.Walltime != "" {
				parts = append(parts, "walltime: "+f.Walltime)
			}
			if f.MapIter != "" {
				parts = append(parts, "mapiter: "+f.MapIter)
			}
			lines = append(lines, fmt.Sprintf("%s.%s\t%s", path, k, strings.Join(parts, "; ")))
		}
	}
	for path, p := range s.imported {
		emit(path, p)
	}
	for path, p := range s.own {
		emit(path, p)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
