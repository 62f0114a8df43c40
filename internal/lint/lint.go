// Package lint implements adaedge-lint, a go/analysis suite that turns the
// prose invariants of DESIGN.md §7 into machine-checked rules:
//
//   - codecpurity: codec trials are pure functions — no clocks, RNG,
//     environment, filesystem or network access, and no writes to
//     package-level state inside the codec substrate packages.
//   - nopanicdecode: decoders must return errors on malformed input, never
//     panic, never drop error returns, and never size allocations off
//     unvalidated attacker-controlled lengths.
//   - lockdiscipline: fields annotated "guarded by <mu>" may only be
//     touched while the named mutex is held.
//   - seqdeterminism: RNG construction and bandit Select/Update decisions
//     stay on the sequencer (internal/core) and the bandit package itself.
//   - bufownership: the DESIGN.md §10 pooled-buffer rules — no double
//     release, no use after release, no escape of a pooled wrapper into
//     exported structs/channels/globals/goroutines, and no codec retaining
//     a caller-supplied buffer.
//   - goroutinediscipline: functions annotated adaedge:decision-goroutine
//     are reached only from the decision goroutine's call graph.
//   - nowallclock: no wall-clock reads or process-global rand in seeded
//     packages outside adaedge:perf-timer sites.
//
// The suite compiles into cmd/adaedge-lint, a vettool run in CI via
//
//	go vet -vettool=$(pwd)/bin/adaedge-lint ./...
//
// or directly as `adaedge-lint -run ./...`, which adds per-analyzer
// finding counts and exits 0 clean / 1 findings / 2 error.
//
// Every analyzer skips _test.go files: tests may legitimately seed RNGs,
// reach into guarded state sequentially, and exercise panics.
package lint

import (
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers is the full adaedge-lint suite, in the order diagnostics are
// reported by the vettool.
var Analyzers = []*analysis.Analyzer{
	CodecPurity,
	NoPanicDecode,
	LockDiscipline,
	SeqDeterminism,
	BufOwnership,
	GoroutineDiscipline,
	NoWallClock,
}

// pkgList is a comma-separated list of import-path prefixes usable as an
// analyzer flag. A package matches an entry when its import path equals the
// entry or is contained in it (entry + "/...").
type pkgList []string

func (l *pkgList) String() string { return strings.Join(*l, ",") }

func (l *pkgList) Set(s string) error {
	*l = nil
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			*l = append(*l, p)
		}
	}
	return nil
}

func (l *pkgList) match(path string) bool {
	for _, p := range *l {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file containing pos is a _test.go file.
func isTestFile(pass *analysis.Pass, node ast.Node) bool {
	f := pass.Fset.File(node.Pos())
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// nonTestFiles returns the syntax trees of the package's non-test files.
func nonTestFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if !isTestFile(pass, f) {
			out = append(out, f)
		}
	}
	return out
}

// baseIdent unwraps selector/index/star/paren chains to the root identifier
// of an assignable expression: pkgvar.field[i] → pkgvar. Returns nil when
// the root is not a plain identifier (e.g. a function call result).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
