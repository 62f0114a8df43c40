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
