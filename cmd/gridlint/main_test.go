package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestGridlintClean builds the gridlint multichecker and runs it over the
// whole module via the vet -vettool protocol — the same invocation CI uses.
// This is the enforcement test for the repo's determinism, hot-path,
// packer-version and logical-clock contracts: any unannotated wall-clock
// call in a decision flow, allocation on a hot path, weight write without a
// version bump, or clock-keyed fault trigger fails it. Running through `go vet` (not in-process) also
// exercises cross-package fact export/import under unitchecker.
func TestGridlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and vets the whole module")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("go tool not found at %s", goTool)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(t.TempDir(), "gridlint")
	build := exec.Command(goTool, "build", "-o", bin, "./cmd/gridlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build gridlint: %v\n%s", err, out)
	}

	vet := exec.Command(goTool, "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("gridlint found contract violations:\n%s", out)
	}
}
