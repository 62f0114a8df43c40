package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCleanTree builds the adaedge-lint vettool and runs it over the whole
// module via go vet, exactly as `make lint` does. It must pass: the suite's
// golden tests prove each analyzer catches seeded violations, and this test
// proves the inverse — no false positives on the real tree. A regression
// here means either a new violation was introduced or an analyzer grew an
// over-broad rule; both block CI.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the whole module; skipped in -short mode")
	}
	root := moduleRoot(t)
	tool := filepath.Join(t.TempDir(), "adaedge-lint")

	build := exec.Command("go", "build", "-o", tool, "./cmd/adaedge-lint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("adaedge-lint reported findings on the clean tree: %v\n%s", err, out)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}
