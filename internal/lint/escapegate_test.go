package lint

import (
	"reflect"
	"testing"
)

// sample -gcflags=-m output: pinned and unpinned files, escape and
// non-escape diagnostics, and duplicate decisions from inlined copies.
const escapeSample = `# repro/internal/bitio
internal/bitio/bitio.go:10:6: can inline NewWriter
internal/bitio/bitio.go:14:9: &Writer{...} escapes to heap
internal/bitio/bitio.go:22:9: &Writer{...} escapes to heap
internal/bitio/bitio.go:31:13: moved to heap: scratch
# repro/internal/compress
internal/compress/gorilla.go:40:12: make([]byte, 0, n) escapes to heap
internal/compress/chimp.go:55:12: make([]byte, 0, 4) escapes to heap
internal/compress/coldpath.go:9:10: big escapes to heap
internal/compress/gorilla.go:80:6: leaking param: dst to result ~r0 level=0
`

func TestParseEscapes(t *testing.T) {
	pinned := []string{
		"internal/bitio/bitio.go",
		"internal/compress/gorilla.go",
		"internal/compress/chimp.go",
	}
	got := ParseEscapes(escapeSample, "repro", pinned)
	want := []string{
		"internal/bitio/bitio.go: &Writer{...} escapes to heap",
		"internal/bitio/bitio.go: moved to heap: scratch",
		"internal/compress/chimp.go: make([]byte, 0, 4) escapes to heap",
		"internal/compress/gorilla.go: make([]byte, 0, n) escapes to heap",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseEscapes:\n got %q\nwant %q", got, want)
	}
	// The same two packages as the go command replays them after
	// `go build -gcflags=-m .` first compiled bitio from inside its own
	// directory: the gate used to match nothing for bitio.go here, and
	// -escape-update dropped its baseline lines.
	if got := ParseEscapes(escapeSampleInPackageDir, "repro", pinned); !reflect.DeepEqual(got, want) {
		t.Errorf("ParseEscapes, bitio's diagnostics cached relative to its own directory:\n got %q\nwant %q", got, want)
	}
}

// escapeSampleInPackageDir is escapeSample with bitio's lines in the
// "./file.go" spelling, and a same-named file of another package that must
// not be taken for the pinned one.
const escapeSampleInPackageDir = `# repro/internal/bitio
./bitio.go:10:6: can inline NewWriter
./bitio.go:14:9: &Writer{...} escapes to heap
./bitio.go:22:9: &Writer{...} escapes to heap
./bitio.go:31:13: moved to heap: scratch
# repro/internal/other [repro/internal/other.test]
./bitio.go:7:2: moved to heap: elsewhere
./gorilla.go:7:2: moved to heap: elsewhere
# repro/internal/compress
internal/compress/gorilla.go:40:12: make([]byte, 0, n) escapes to heap
internal/compress/chimp.go:55:12: make([]byte, 0, 4) escapes to heap
internal/compress/coldpath.go:9:10: big escapes to heap
`

// TestParseEscapesUnpinned proves the gate ignores escapes outside the
// pinned set entirely: cold paths may allocate freely.
func TestParseEscapesUnpinned(t *testing.T) {
	got := ParseEscapes(escapeSample, "repro", []string{"internal/compress/coldpath.go"})
	want := []string{"internal/compress/coldpath.go: big escapes to heap"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseEscapes(coldpath only):\n got %q\nwant %q", got, want)
	}
}

// TestDiffEscapes is the gate's golden failure case: a refactor that
// introduces one new heap escape in a pinned file must be reported, while
// decisions that disappeared (an escape fixed) must not fail the gate.
func TestDiffEscapes(t *testing.T) {
	baseline := []string{
		"internal/bitio/bitio.go: &Writer{...} escapes to heap",
		"internal/core/online.go: moved to heap: trial",
	}
	current := []string{
		"internal/bitio/bitio.go: &Writer{...} escapes to heap",
		// online.go's escape was fixed; sprintz.go grew a new one.
		"internal/compress/sprintz.go: make([]int64, n) escapes to heap",
	}
	added := DiffEscapes(baseline, current)
	want := []string{"internal/compress/sprintz.go: make([]int64, n) escapes to heap"}
	if !reflect.DeepEqual(added, want) {
		t.Errorf("DiffEscapes added:\n got %q\nwant %q", added, want)
	}
	removed := DiffEscapes(current, baseline)
	wantRemoved := []string{"internal/core/online.go: moved to heap: trial"}
	if !reflect.DeepEqual(removed, wantRemoved) {
		t.Errorf("DiffEscapes removed:\n got %q\nwant %q", removed, wantRemoved)
	}
}

func TestDiffEscapesClean(t *testing.T) {
	base := []string{"a.go: x escapes to heap"}
	if added := DiffEscapes(base, base); len(added) != 0 {
		t.Errorf("identical sets should diff clean, got %q", added)
	}
	if added := DiffEscapes(base, nil); len(added) != 0 {
		t.Errorf("all escapes fixed should diff clean, got %q", added)
	}
}

// TestEscapeBaselineCommitted pins the repo invariant the CI job relies
// on: the baseline exists at the module root and every entry references a
// pinned file. (The full gate run lives in cleantree_test.go.)
func TestEscapeBaselineCommitted(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	entries, err := readBaseline(root + "/" + EscapeBaselineFile)
	if err != nil {
		t.Fatalf("reading committed %s: %v", EscapeBaselineFile, err)
	}
	if len(entries) == 0 {
		t.Fatalf("%s is empty: the hot path has known pinned escapes", EscapeBaselineFile)
	}
	pin := make(map[string]bool, len(EscapePinnedFiles))
	for _, p := range EscapePinnedFiles {
		pin[p] = true
	}
	for _, e := range entries {
		file, _, ok := cutEscapeEntry(e)
		if !ok || !pin[file] {
			t.Errorf("baseline entry references unpinned or malformed file: %q", e)
		}
	}
}
