package lint

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Escape gate: the compile-time half of the zero-alloc contract.
//
// PR 6's TestAllocs* pin allocs/op at runtime, but an alloc budget is a
// symptom check — the cause is an escape-analysis decision, and those
// change silently when code is refactored or the toolchain updates. The
// gate compiles the module with -gcflags=-m, extracts every "escapes to
// heap" / "moved to heap" decision in the pinned hot-path files, and
// diffs them against the committed ESCAPES.baseline. A new escape fails
// CI with the exact variable and file in hand, before any benchmark
// moves.
//
// The baseline is deliberately file-scoped, not line-scoped: positions
// churn with every edit, so lines are stripped during normalization and
// the diff keys on (file, escaping expression). Escapes the compiler
// reports in unpinned files (cold paths, constructors, tests) are out of
// scope — the gate guards the segment-rate path only.
//
// Exit 0 clean / 1 findings (new escapes) / 2 error.

// EscapePinnedFiles are the hot-path files whose escape decisions are
// pinned by ESCAPES.baseline: the codec substrate's bit I/O, the four
// tightest lossless codecs, the lossy encoders, the forest the ML objective
// predicts with, both engines' decision paths with their buffer pools and
// evaluator, and the delivered half: the uplink's Send, the spool's ring
// and the wire's frame codec.
var EscapePinnedFiles = []string{
	"internal/bitio/bitio.go",
	"internal/compress/gorilla.go",
	"internal/compress/chimp.go",
	"internal/compress/sprintz.go",
	"internal/compress/buff.go",
	"internal/compress/fftc.go",
	"internal/compress/paa.go",
	"internal/compress/pla.go",
	"internal/compress/lttb.go",
	"internal/compress/rrd.go",
	"internal/ml/forest.go",
	"internal/core/online.go",
	"internal/core/offline.go",
	"internal/core/target.go",
	"internal/core/scratch.go",
	"internal/store/spool.go",
	"internal/transport/resilient.go",
	"internal/transport/transport.go",
}

// EscapeBaselineFile is the committed golden, relative to the module root.
const EscapeBaselineFile = "ESCAPES.baseline"

// escapeLineRe matches one escape decision in -gcflags=-m output:
// "path/file.go:12:6: x escapes to heap" or "... moved to heap: x".
var escapeLineRe = regexp.MustCompile(`^(.*\.go):\d+:\d+: (.*(?:escapes to heap|moved to heap).*)$`)

// ParseEscapes extracts the normalized escape decisions for the pinned
// files from raw `go build -gcflags=-m` output: one "file: message" entry
// per decision, line/column stripped, sorted and deduplicated.
//
// The go command replays a package's cached diagnostics with the paths of
// whichever build compiled it first: "./file.go" if that build ran inside
// the package's directory. Those are resolved against the "# import/path"
// header the go command prints above each package's output (module is the
// module path the import paths start with), so where the cache was filled
// from cannot make a pinned file's decisions vanish from the gate.
func ParseEscapes(output, module string, pinned []string) []string {
	pin := make(map[string]bool, len(pinned))
	for _, p := range pinned {
		pin[filepath.ToSlash(p)] = true
	}
	seen := map[string]bool{}
	var out []string
	pkgDir := "" // the current package's directory, relative to the module root
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if header, ok := strings.CutPrefix(line, "# "); ok {
			importPath, _, _ := strings.Cut(header, " ")
			pkgDir = strings.TrimPrefix(strings.TrimPrefix(importPath, module), "/")
			continue
		}
		m := escapeLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := filepath.ToSlash(m[1])
		if inPkg, ok := strings.CutPrefix(file, "./"); ok {
			file = path.Join(pkgDir, inPkg)
		}
		if !pin[file] {
			continue
		}
		entry := file + ": " + m[2]
		if !seen[entry] {
			seen[entry] = true
			out = append(out, entry)
		}
	}
	sort.Strings(out)
	return out
}

// DiffEscapes returns the entries of current missing from baseline — the
// new escapes. Entries that disappeared are fine (an escape fixed is an
// improvement; refresh the baseline with -escape-update when convenient).
func DiffEscapes(baseline, current []string) []string {
	base := make(map[string]bool, len(baseline))
	for _, b := range baseline {
		base[b] = true
	}
	var added []string
	for _, c := range current {
		if !base[c] {
			added = append(added, c)
		}
	}
	return added
}

// cutEscapeEntry splits a normalized baseline entry back into its file
// and message halves.
func cutEscapeEntry(entry string) (file, msg string, ok bool) {
	return strings.Cut(entry, ": ")
}

// readBaseline parses the committed baseline: one entry per line, blank
// lines and #-comments ignored.
func readBaseline(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out, nil
}

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path off root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// RunEscapeGate compiles the module with escape-analysis diagnostics and
// compares the pinned files' decisions against the baseline, writing a
// report to w. With update set it rewrites the baseline instead of
// failing. Returns the exit code: 0 clean (or baseline updated) / 1
// findings (new escapes) / 2 error.
func RunEscapeGate(w io.Writer, update bool) int {
	root, err := moduleRoot(".")
	if err != nil {
		fmt.Fprintf(w, "escape-gate: %v\n", err)
		return 2
	}
	module, err := modulePath(root)
	if err != nil {
		fmt.Fprintf(w, "escape-gate: %v\n", err)
		return 2
	}
	// -gcflags=-m prints per-function escape decisions on stderr; the
	// build cache replays compiler output, so warm runs stay fast.
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(w, "escape-gate: go build -gcflags=-m failed: %v\n%s", err, out)
		return 2
	}
	current := ParseEscapes(string(out), module, EscapePinnedFiles)

	baselinePath := filepath.Join(root, EscapeBaselineFile)
	if update {
		var b strings.Builder
		b.WriteString("# Escape-analysis baseline for the pinned hot-path files (DESIGN.md §10).\n")
		b.WriteString("# One normalized `go build -gcflags=-m` decision per line, sorted.\n")
		b.WriteString("# Regenerate with: make escape-gate-update (adaedge-lint -escape -escape-update)\n")
		for _, e := range current {
			b.WriteString(e)
			b.WriteString("\n")
		}
		if err := os.WriteFile(baselinePath, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(w, "escape-gate: writing baseline: %v\n", err)
			return 2
		}
		fmt.Fprintf(w, "escape-gate: baseline updated (%d escape decisions across %d pinned files)\n",
			len(current), len(EscapePinnedFiles))
		return 0
	}

	baseline, err := readBaseline(baselinePath)
	if err != nil {
		fmt.Fprintf(w, "escape-gate: reading %s: %v (run with -escape-update to create it)\n", EscapeBaselineFile, err)
		return 2
	}
	added := DiffEscapes(baseline, current)
	removed := DiffEscapes(current, baseline)
	if len(added) == 0 {
		fmt.Fprintf(w, "escape-gate: clean (%d pinned escape decisions, %d fixed since baseline)\n",
			len(current), len(removed))
		return 0
	}
	fmt.Fprintf(w, "escape-gate: %d new heap escape(s) in pinned hot-path files:\n", len(added))
	for _, e := range added {
		fmt.Fprintf(w, "  %s\n", e)
	}
	fmt.Fprintf(w, "escape-gate: fix the escape or, if intentional, refresh %s with -escape-update\n", EscapeBaselineFile)
	return 1
}
