package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Codec trials are pure functions of the segment (DESIGN.md §7): the
// engines may run them on any goroutine, and two devices with the same
// seed must encode alike. purePkgs are the packages that rule covers.
var purePkgs = []string{"internal/compress", "internal/bitio", "internal/dsp"}

// impurePkgs are packages any reference to which is impure in a codec.
// The observability substrate owns the clocks and the metrics:
// instrumentation lives in the engines, never inside codecs (DESIGN.md §9).
var impurePkgs = map[string]bool{
	"math/rand":          true,
	"math/rand/v2":       true,
	"os":                 true,
	"io/ioutil":          true,
	"net":                true,
	"net/http":           true,
	"repro/internal/obs": true,
}

// clockFuncs are the functions of package time that read the wall clock
// or arm a timer. The rest of the package (Duration arithmetic,
// constants) stays legal.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
}

// TestCodecPackagesPure holds the non-test files of purePkgs to the rule:
// no clock reads, no use of impurePkgs, and no write to a package-level
// variable outside init. A codec that needs randomness takes a seed, and
// one that needs the time takes a timestamp.
func TestCodecPackagesPure(t *testing.T) {
	for _, dir := range purePkgs {
		fset := token.NewFileSet()
		files := parseNonTest(t, fset, dir)
		for _, msg := range impurities(fset, "repro/"+dir, files) {
			t.Error(msg)
		}
	}
}

// TestCoreStartsNoGoroutine holds internal/core's non-test files to
// DESIGN.md §7 rule 1: an engine never starts a goroutine. Every decision,
// trial and trace emission runs on the caller's goroutine, and more cores
// are used by running more engines, one per goroutine.
func TestCoreStartsNoGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	files := parseNonTest(t, fset, "internal/core")
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement", fset.Position(g.Pos()))
			}
			return true
		})
	}
}

// parseNonTest parses the non-test Go files of dir into fset.
func parseNonTest(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	var files []*ast.File
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("%s has no Go files", dir)
	}
	return files
}

// TestCodecPurityRules runs the rule over one inline source per rule and
// asserts exactly the lines it reports, so the check above cannot pass
// because a rule stopped firing. The legal patterns must report nothing.
func TestCodecPurityRules(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      []string
	}{
		{"clock reads", `package p

import "time"

func f() {
	t0 := time.Now()
	_ = time.Since(t0)
	_ = time.Until(t0)
	time.Sleep(time.Millisecond)
	_ = time.Tick(time.Second)
	_ = time.After(time.Second)
	_ = time.AfterFunc(time.Second, func() {})
	_ = time.NewTimer(time.Second)
	_ = time.NewTicker(time.Second)
}
`, []string{
			"src.go:6: clock read time.Now",
			"src.go:7: clock read time.Since",
			"src.go:8: clock read time.Until",
			"src.go:9: clock read time.Sleep",
			"src.go:10: clock read time.Tick",
			"src.go:11: clock read time.After",
			"src.go:12: clock read time.AfterFunc",
			"src.go:13: clock read time.NewTimer",
			"src.go:14: clock read time.NewTicker",
		}},
		{"impure packages", `package p

import (
	"io/ioutil"
	"math/rand"
	randv2 "math/rand/v2"
	"net"
	"net/http"
	"os"

	"repro/internal/obs"
)

func f() {
	_ = rand.Intn(10)
	_ = randv2.IntN(10)
	_, _ = os.ReadFile("x")
	_, _ = ioutil.ReadAll(nil)
	_, _ = net.Dial("tcp", "x")
	_, _ = http.Get("x")
	_ = obs.NewRegistry()
}
`, []string{
			"src.go:15: use of math/rand.Intn",
			"src.go:16: use of math/rand/v2.IntN",
			"src.go:17: use of os.ReadFile",
			"src.go:18: use of io/ioutil.ReadAll",
			"src.go:19: use of net.Dial",
			"src.go:20: use of net/http.Get",
			"src.go:21: use of repro/internal/obs.NewRegistry",
		}},
		{"package-level writes", `package p

type table struct{ n int }

var (
	cache = map[string]int{}
	hits  int
	tab   table
	ptr   = new(int)
	hook  = func() { hits = 0 }
)

func f() {
	cache["x"] = 1
	hits++
	hits += 2
	tab.n = 3
	*ptr = 4
	_, hits = 5, 6
}
`, []string{
			"src.go:10: write to package-level variable hits outside init",
			"src.go:14: write to package-level variable cache outside init",
			"src.go:15: write to package-level variable hits outside init",
			"src.go:16: write to package-level variable hits outside init",
			"src.go:17: write to package-level variable tab outside init",
			"src.go:18: write to package-level variable ptr outside init",
			"src.go:19: write to package-level variable hits outside init",
		}},
		// Mutant CP1 of DESIGN.md §7's table: a codec setting read from the
		// environment, so two devices with the same seed encode differently.
		// No runtime test sets the variable; this rule is what catches it.
		{"CP1", `package p

import (
	"os"
	"strconv"
)

func gzipLevel() int {
	level, err := strconv.Atoi(os.Getenv("ADAEDGE_GZIP_LEVEL"))
	if err != nil {
		return 6
	}
	return level
}
`, []string{"src.go:9: use of os.Getenv"}},
		{"legal patterns", `package p

import (
	"sync"
	"time"
)

var cache = map[string]int{}

var hits int

func scale(d time.Duration) time.Duration { return d*2 + time.Millisecond }

type codec struct {
	mu   sync.Mutex
	seen int
	tab  map[string]int
}

func (c *codec) observe() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	c.tab["k"] = c.seen
	hits := c.seen
	hits++
	_ = hits
}

func init() {
	cache["warm"] = 0
	hits = 1
	func() { hits++ }()
}
`, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "src.go", tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := impurities(fset, "p", []*ast.File{f}); !slices.Equal(got, tc.want) {
				t.Errorf("reported\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(tc.want, "\n\t"))
			}
		})
	}
}

// impurities reports, in source order, every clock read, use of an impure
// package and write to a package-level variable outside init in files,
// one "file:line: what" string each.
func impurities(fset *token.FileSet, path string, files []*ast.File) []string {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	// Imports resolve to empty packages, so a reference into one is a type
	// error, which is ignored: the qualifier still resolves to its import,
	// and the package's own variables to its scope.
	conf := types.Config{Importer: stubImporter{}, Error: func(error) {}}
	pkg, _ := conf.Check(path, fset, files, info)

	var out []string
	report := func(n ast.Node, format string, args ...any) {
		p := fset.Position(n.Pos())
		out = append(out, fmt.Sprintf("%s:%d: ", p.Filename, p.Line)+fmt.Sprintf(format, args...))
	}
	writes := func(lhs ast.Expr) {
		id := rootIdent(lhs)
		if id == nil || id.Name == "_" {
			return
		}
		if v, ok := info.ObjectOf(id).(*types.Var); ok && v.Parent() == pkg.Scope() {
			report(lhs, "write to package-level variable %s outside init", id.Name)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			inInit := ok && fd.Recv == nil && fd.Name.Name == "init"
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					id, ok := n.X.(*ast.Ident)
					if !ok {
						break
					}
					if pn, ok := info.Uses[id].(*types.PkgName); ok {
						switch imp := pn.Imported().Path(); {
						case impurePkgs[imp]:
							report(n, "use of %s.%s", imp, n.Sel.Name)
						case imp == "time" && clockFuncs[n.Sel.Name]:
							report(n, "clock read time.%s", n.Sel.Name)
						}
					}
				case *ast.AssignStmt:
					if !inInit {
						for _, lhs := range n.Lhs {
							writes(lhs)
						}
					}
				case *ast.IncDecStmt:
					if !inInit {
						writes(n.X)
					}
				}
				return true
			})
		}
	}
	return out
}

// rootIdent unwraps an assignable expression to the variable it writes
// into: v.f[i] and *v both write v. It is nil when the root is not an
// identifier, as in f().x.
func rootIdent(e ast.Expr) *ast.Ident {
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

// stubImporter resolves every import to an empty package named after its
// path, skipping a trailing major version (math/rand/v2 is rand). The
// purity rules need to know which import a qualifier names, not what the
// import declares, so nothing is read from the build cache or GOROOT.
type stubImporter struct{}

var majorVersion = regexp.MustCompile(`/v[0-9]+$`)

func (stubImporter) Import(path string) (*types.Package, error) {
	name := majorVersion.ReplaceAllString(path, "")
	name = name[strings.LastIndex(name, "/")+1:]
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	return pkg, nil
}
