// Package linttest is a self-contained analogue of
// golang.org/x/tools/go/analysis/analysistest for golden-diagnostic tests.
//
// The upstream analysistest depends on go/packages, which is not part of
// the x/tools subset the Go distribution vendors for cmd/vet — and this
// repository builds offline against exactly that subset. linttest
// re-implements the part the analyzer tests need: load a fixture package
// from a testdata directory, typecheck it with the source importer, run
// analyzers (resolving their Requires graph), and compare reported
// diagnostics against analysistest-style expectations written as
//
//	expr // want "regexp" `another regexp`
//
// Every diagnostic must match an expectation on its line and every
// expectation must be matched by a diagnostic, with regexps matched
// against the diagnostic message (substring semantics, as in
// analysistest).
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// The fileset and importer are shared process-wide: the source importer
// caches the packages it typechecks (the stdlib closure of time, os,
// math/rand, ...), so later fixture loads are nearly free. The cache keys
// positions to fset, hence the single shared instance.
var (
	loadMu sync.Mutex
	fset   = token.NewFileSet()
	imp    = importer.ForCompiler(fset, "source", nil)
)

// Run loads the fixture package in dir, typechecks it under the import
// path importPath, applies each analyzer, and reports mismatches between
// diagnostics and // want expectations through t.
func Run(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	files, diags := load(t, dir, importPath, analyzers)
	compare(t, files, diags)
}

// RunExpectClean is Run for scoping tests: it fails on ANY diagnostic,
// ignoring want comments. Use it to prove an analyzer stays silent on a
// seeded fixture when configured out of scope.
func RunExpectClean(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	_, diags := load(t, dir, importPath, analyzers)
	for _, d := range diags {
		t.Errorf("%s: unexpected diagnostic from out-of-scope analyzer: %s", fset.Position(d.Pos), d.Message)
	}
}

func load(t *testing.T, dir, importPath string, analyzers []*analysis.Analyzer) ([]*ast.File, []analysis.Diagnostic) {
	t.Helper()
	loadMu.Lock()
	defer loadMu.Unlock()

	files, err := parseDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	cfg := &types.Config{Importer: imp}
	pkg, err := cfg.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("linttest: typechecking %s: %v", dir, err)
	}

	var diags []analysis.Diagnostic
	results := map[*analysis.Analyzer]interface{}{}
	for _, az := range analyzers {
		if err := runAnalyzer(az, files, pkg, info, results, &diags); err != nil {
			t.Fatalf("linttest: analyzer %s: %v", az.Name, err)
		}
	}
	return files, diags
}

// runAnalyzer executes az after its Requires, memoizing results.
func runAnalyzer(az *analysis.Analyzer, files []*ast.File, pkg *types.Package, info *types.Info, results map[*analysis.Analyzer]interface{}, diags *[]analysis.Diagnostic) error {
	if _, done := results[az]; done {
		return nil
	}
	for _, req := range az.Requires {
		if err := runAnalyzer(req, files, pkg, info, results, diags); err != nil {
			return err
		}
	}
	resultOf := map[*analysis.Analyzer]interface{}{}
	for _, req := range az.Requires {
		resultOf[req] = results[req]
	}
	pass := &analysis.Pass{
		Analyzer:   az,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		TypesSizes: types.SizesFor("gc", runtime.GOARCH),
		ResultOf:   resultOf,
		Report: func(d analysis.Diagnostic) {
			*diags = append(*diags, d)
		},
		ReadFile: os.ReadFile,
	}
	res, err := az.Run(pass)
	if err != nil {
		return err
	}
	results[az] = res
	return nil
}

func parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

// expectation is one "want" regexp anchored to a file line.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`(?m)//\s*want\s+(.*)$`)

// argRe extracts the quoted or backquoted regexp arguments of a want
// comment.
var argRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses // want comments from the fixture files.
func collectWants(files []*ast.File) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				args := argRe.FindAllString(m[1], -1)
				if len(args) == 0 {
					return nil, fmt.Errorf("%s: want comment with no pattern", pos)
				}
				for _, a := range args {
					pat := a[1 : len(a)-1] // strip quotes/backquotes
					if a[0] == '"' {
						pat = strings.ReplaceAll(pat, `\"`, `"`)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %s: %v", pos, a, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx, raw: a})
				}
			}
		}
	}
	return wants, nil
}

func compare(t *testing.T, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants, err := collectWants(files)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", w.file, w.line, w.raw)
		}
	}
}
