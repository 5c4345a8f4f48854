package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLinter builds the linter binary into a temporary directory.
func buildLinter(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sentinel-lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building linter: %v\n%s", err, out)
	}
	return bin
}

// TestSelfLintClean drives the linter through the real `go vet -vettool`
// protocol over the whole module, test variants included, and requires
// a clean bill: the repo must satisfy its own invariant and carry no
// stale //lint:allow.
func TestSelfLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and vets the module")
	}
	vet := exec.Command("go", "vet", "-vettool="+buildLinter(t), "./...")
	vet.Dir = filepath.Join("..", "..")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}

// TestVetProtocol pins the handshake cmd/go runs before vetting: -V=full
// answers with a content-hashed build ID, -flags with an empty flag
// list, and anything else is a usage error.
func TestVetProtocol(t *testing.T) {
	bin := buildLinter(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil || !strings.HasPrefix(string(out), bin+" version devel ") || !strings.Contains(string(out), "buildID=") {
		t.Fatalf("-V=full: %v, %q", err, out)
	}
	if out, err := exec.Command(bin, "-flags").Output(); err != nil || strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("-flags: %v, %q", err, out)
	}
	if err := exec.Command(bin).Run(); err == nil {
		t.Fatal("no arguments: exit 0, want a usage error")
	}
}
