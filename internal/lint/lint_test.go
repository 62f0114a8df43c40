package lint_test

import (
	"testing"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// setFlag overrides an analyzer flag for one test, restoring the previous
// value afterward so tests cannot leak configuration into each other.
func setFlag(t *testing.T, az *analysis.Analyzer, name, value string) {
	t.Helper()
	f := az.Flags.Lookup(name)
	if f == nil {
		t.Fatalf("analyzer %s has no flag %q", az.Name, name)
	}
	old := f.Value.String()
	if err := az.Flags.Set(name, value); err != nil {
		t.Fatalf("setting %s.%s: %v", az.Name, name, err)
	}
	t.Cleanup(func() {
		if err := az.Flags.Set(name, old); err != nil {
			t.Fatalf("restoring %s.%s: %v", az.Name, name, err)
		}
	})
}

func TestCodecPurity(t *testing.T) {
	setFlag(t, lint.CodecPurity, "pure-pkgs", "purepkg")
	linttest.Run(t, "testdata/purepkg", "purepkg", lint.CodecPurity)
}

// TestCodecPurityScoping proves the analyzer is silent on packages outside
// its scope: the same seeded fixture produces zero diagnostics when its
// import path is not in pure-pkgs.
func TestCodecPurityScoping(t *testing.T) {
	setFlag(t, lint.CodecPurity, "pure-pkgs", "someother/pkg")
	linttest.RunExpectClean(t, "testdata/purepkg", "purepkg", lint.CodecPurity)
}

func TestNoPanicDecode(t *testing.T) {
	setFlag(t, lint.NoPanicDecode, "decode-pkgs", "decodepkg")
	linttest.Run(t, "testdata/decodepkg", "decodepkg", lint.NoPanicDecode)
}

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, "testdata/lockpkg", "lockpkg", lint.LockDiscipline)
}

func TestSeqDeterminism(t *testing.T) {
	linttest.Run(t, "testdata/seqpkg", "seqpkg", lint.SeqDeterminism)
}

// TestSeqDeterminismAllowed proves the allowlists work: with the fixture's
// own path added to both allowlists, only the process-global RNG use (which
// has no allowlist by design) is still reported.
func TestSeqDeterminismAllowed(t *testing.T) {
	setFlag(t, lint.SeqDeterminism, "rng-pkgs", "seqpkg,repro/internal/bandit")
	setFlag(t, lint.SeqDeterminism, "bandit-pkgs", "seqpkg")
	linttest.RunExpectOnly(t, "testdata/seqpkg", "seqpkg", `process-global`, lint.SeqDeterminism)
}

func TestBufOwnership(t *testing.T) {
	setFlag(t, lint.BufOwnership, "pool-pkgs", "bufpkg")
	setFlag(t, lint.BufOwnership, "into-pkgs", "bufpkg")
	// The fixture's trial also has a hand-off, a second release-family name.
	setFlag(t, lint.BufOwnership, "releases", "release,releaseDecoded,handOff")
	linttest.Run(t, "testdata/bufpkg", "bufpkg", lint.BufOwnership)
}

// TestBufOwnershipScoping proves the analyzer is silent on packages outside
// both the pool and codec scopes.
func TestBufOwnershipScoping(t *testing.T) {
	setFlag(t, lint.BufOwnership, "pool-pkgs", "someother/pkg")
	setFlag(t, lint.BufOwnership, "into-pkgs", "someother/pkg")
	linttest.RunExpectClean(t, "testdata/bufpkg", "bufpkg", lint.BufOwnership)
}

func TestGoroutineDiscipline(t *testing.T) {
	linttest.Run(t, "testdata/goroutinepkg", "goroutinepkg", lint.GoroutineDiscipline)
}

// TestGoroutineDisciplineEntryPkg proves entry packages are exempt: their
// main goroutine IS the decision goroutine in direct mode, so the same
// seeded fixture produces no diagnostics.
func TestGoroutineDisciplineEntryPkg(t *testing.T) {
	setFlag(t, lint.GoroutineDiscipline, "entry-pkgs", "goroutinepkg")
	linttest.RunExpectClean(t, "testdata/goroutinepkg", "goroutinepkg", lint.GoroutineDiscipline)
}

func TestNoWallClock(t *testing.T) {
	setFlag(t, lint.NoWallClock, "seeded-pkgs", "clockpkg")
	linttest.Run(t, "testdata/clockpkg", "clockpkg", lint.NoWallClock)
}

// TestNoWallClockScoping proves the analyzer is silent outside the seeded
// packages.
func TestNoWallClockScoping(t *testing.T) {
	setFlag(t, lint.NoWallClock, "seeded-pkgs", "someother/pkg")
	linttest.RunExpectClean(t, "testdata/clockpkg", "clockpkg", lint.NoWallClock)
}
