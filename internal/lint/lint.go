// Package lint implements adaedge-lint, a go/analysis suite that turns
// three invariants of DESIGN.md §7 and §10 into machine-checked rules:
//
//   - codecpurity: codec trials are pure functions — no clocks, RNG,
//     environment, filesystem or network access, and no writes to
//     package-level state inside the codec substrate packages.
//   - nopanicdecode: decoders must return errors on malformed input, never
//     panic, never drop error returns, and never size allocations off
//     unvalidated attacker-controlled lengths.
//   - bufownership: the DESIGN.md §10 pooled-buffer rules — no double
//     release, no use after release, no escape of a pooled wrapper into
//     exported structs/channels/globals/goroutines, and no codec retaining
//     a caller-supplied buffer.
//
// Each analyzer is kept because a mutant of its invariant is caught by it
// and by no test (DESIGN.md §7, "Enforced invariants"); its golden fixture
// under testdata/ carries that mutant. The suite compiles into
// cmd/adaedge-lint, a vettool run by `make lint` and by TestCleanTree:
//
//	go vet -vettool=$(pwd)/bin/adaedge-lint ./...
//
// Every analyzer skips _test.go files: tests may legitimately read clocks,
// keep buffers, and exercise panics.
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
	BufOwnership,
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
