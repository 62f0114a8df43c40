package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// rentAllowlist holds the exported names under internal/ that no non-test
// file calls and that stay anyway, each with its reason. An entry whose
// reason is a standard-library interface names the interface in iface;
// the test checks that the method's type implements it.
var rentAllowlist = map[string]struct{ iface, reason string }{
	"core.TargetKind.String": {"fmt.Stringer", "printed with %v and %s by the CLIs and experiments"},
	"query.Agg.String":       {"fmt.Stringer", "printed with %v and %s by the CLIs and experiments"},
	"sim.Bandwidth.String":   {"fmt.Stringer", "printed with %v by the experiments' link tables"},
	"sim.stallError.Timeout": {"net.Error", "a stalled write must read as a timeout to net.Error callers"},
	"sim.stallError.Temporary": {"net.Error",
		"a stalled write must read as a timeout to net.Error callers"},
	"transport.frameError.Unwrap": {"errors unwrapping", "errors.Is reaches the malformed-frame cause through it"},
	"core.OfflineEngine.SaveTo":   {"", "the offline checkpoint (AEP1); its first caller is the crash-restart path of ROADMAP item 6"},
	"core.ResumeOfflineEngine":    {"", "the offline checkpoint (AEP1); its first caller is the crash-restart path of ROADMAP item 6"},
	"store.ReadWatermarks":        {"", "the collector's dedup watermarks (AEW1); their first caller is the crash-restart path of ROADMAP item 6"},
	"store.Watermarks.WriteTo":    {"io.WriterTo", "the collector's dedup watermarks (AEW1); their first caller is the crash-restart path of ROADMAP item 6"},
	"sim.FaultPlan.StallAt":       {"", "the transport chaos tests inject write stalls with it"},
	"freelist.List.Sizes":         {"", "until ROADMAP item 23 removes the package"},
}

// rentIfaces resolves the interfaces rentAllowlist names. "errors
// unwrapping" is the anonymous interface errors.Unwrap asserts.
var rentIfaces = map[string]func(std types.Importer) (*types.Interface, error){
	"fmt.Stringer": stdIface("fmt", "Stringer"),
	"net.Error":    stdIface("net", "Error"),
	"io.WriterTo":  stdIface("io", "WriterTo"),
	"errors unwrapping": func(types.Importer) (*types.Interface, error) {
		sig := types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete(), nil
	},
}

func stdIface(path, name string) func(types.Importer) (*types.Interface, error) {
	return func(std types.Importer) (*types.Interface, error) {
		pkg, err := std.Import(path)
		if err != nil {
			return nil, err
		}
		return pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface), nil
	}
}

// TestExportedNamesHaveCallers holds every exported top-level name and
// every exported method under internal/ to ROADMAP's rent rule: some
// non-test file of the module references it outside its own declaration.
// The files counted are the whole module's: the adaedge facade, the CLIs,
// the examples and the experiments. A method also counts as called when
// its type, or a type embedding it, implements an interface whose
// same-named method is called. The check is type-resolved, so a method
// is not kept alive by a same-named method of another type.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgs["repro/"+filepath.ToSlash(filepath.Dir(path))] = nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range pkgs {
		pkgs[path] = parseNonTest(t, fset, strings.TrimPrefix(path, "repro/"))
	}
	std := importer.ForCompiler(fset, "gc", nil)
	uncalled, named, err := uncalledExported(fset, pkgs, std)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		if _, ok := rentAllowlist[name]; !ok {
			t.Errorf("%s has no non-test caller: give it one an example, experiment or CLI needs, or delete it", name)
		}
	}
	for name, entry := range rentAllowlist {
		if !slices.Contains(uncalled, name) {
			t.Errorf("allowlist entry %s is stale: it has a caller or is gone", name)
			continue
		}
		if entry.iface == "" {
			continue
		}
		iface, err := rentIfaces[entry.iface](std)
		if err != nil {
			t.Fatalf("%s: %v", entry.iface, err)
		}
		typ := named[name[:strings.LastIndex(name, ".")]]
		if typ == nil || !types.Implements(types.NewPointer(typ), iface) {
			t.Errorf("allowlist entry %s: its type does not implement %s", name, entry.iface)
		}
	}
}

// TestExportedNamesRules runs the check over inline packages and asserts
// exactly the names it reports, so TestExportedNamesHaveCallers cannot
// pass because the check stopped firing.
func TestExportedNamesRules(t *testing.T) {
	srcs := map[string]string{
		"repro/internal/p": `package p

// Unused has no caller.
func Unused() {}

// Used is called by Run.
func Used() {}

type A struct{}
type B struct{}

// Get on A is called; Get on B shares the name and is not.
func (A) Get() int { return 1 }
func (B) Get() int { return 2 }

// Sizer's Size is called, so C.Size, reached only through it, is used.
type Sizer interface{ Size() int }
type C struct{}

func (C) Size() int { return 3 }

// E embeds D, so D.Size is used through E.
type D struct{}

func (D) Size() int { return 4 }

type E struct{ D }

// Aliased is only named by the facade.
func Aliased() {}

// Recursive calls only itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func Run(s Sizer) int {
	Used()
	_ = B{}
	return A{}.Get() + s.Size() + Run(C{}) + Run(E{})
}
`,
		"repro/adaedge": `package adaedge

import "repro/internal/p"

var Aliased = p.Aliased

var Run = p.Run
`,
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for path, src := range srcs {
		f, err := parser.ParseFile(fset, path+"/src.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[path] = []*ast.File{f}
	}
	got, _, err := uncalledExported(fset, pkgs, importer.ForCompiler(fset, "gc", nil))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p.B.Get", "p.Recursive", "p.Unused"}
	if !slices.Equal(got, want) {
		t.Errorf("reported %v, want %v", got, want)
	}
}

// uncalledExported type-checks pkgs (import path → non-test files),
// resolving module imports among pkgs and the rest through std, and
// returns, sorted, every exported top-level name and exported method
// declared under repro/internal/ that nothing references outside its own
// declaration. Names read "core.OfflineEngine.SaveTo": the path below
// internal/, then the receiver type for a method. named maps each
// reported method's "pkg.Type" to its type.
func uncalledExported(fset *token.FileSet, pkgs map[string][]*ast.File, std types.Importer) (uncalled []string, named map[string]*types.Named, err error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	imp := &moduleImporter{fset: fset, files: pkgs, std: std, info: info, done: map[string]*types.Package{}}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			return nil, nil, err
		}
	}

	// decl gives each candidate the extent of its own declaration, and a
	// type also its methods' receivers: a reference inside one
	// (recursion, a receiver naming its type) is not a caller.
	type extent struct{ pos, end token.Pos }
	decl := map[types.Object][]extent{}
	label := map[types.Object]string{}
	named = map[string]*types.Named{}
	for _, path := range paths {
		rel, internal := strings.CutPrefix(path, "repro/internal/")
		if !internal {
			continue
		}
		for _, f := range pkgs[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					name := rel + "." + obj.Name()
					if d.Recv != nil {
						recv := recvNamed(obj)
						decl[recv.Obj()] = append(decl[recv.Obj()], extent{d.Recv.Pos(), d.Recv.End()})
						name = rel + "." + recv.Obj().Name() + "." + obj.Name()
						named[rel+"."+recv.Obj().Name()] = recv
					}
					if obj.Exported() {
						decl[obj] = append(decl[obj], extent{d.Pos(), d.End()})
						label[obj] = name
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var ids []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							if obj := info.Defs[id]; obj != nil && obj.Exported() {
								decl[obj] = append(decl[obj], extent{spec.Pos(), spec.End()})
								label[obj] = rel + "." + obj.Name()
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	calledIface := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				calledIface[fn] = true
			}
		}
		if slices.ContainsFunc(decl[obj], func(e extent) bool { return e.pos <= id.Pos() && id.Pos() < e.end }) {
			continue
		}
		used[obj] = true
	}
	// A method reached through an interface: every type that implements
	// the interface, directly or through an embedded type, has its
	// same-named method called.
	var allNamed []*types.Named
	for _, path := range paths {
		scope := imp.done[path].Scope()
		for _, name := range scope.Names() {
			if n, ok := scope.Lookup(name).Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == 0 {
				allNamed = append(allNamed, n)
			}
		}
	}
	for m := range calledIface {
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range allNamed {
			ptr := types.NewPointer(n)
			if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
				continue
			}
			if sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()); sel != nil {
				used[origin(sel.Obj())] = true
			}
		}
	}
	for obj, name := range label {
		if !used[obj] {
			uncalled = append(uncalled, name)
		}
	}
	slices.Sort(uncalled)
	return uncalled, named, nil
}

// moduleImporter type-checks the module's packages on first import, in
// dependency order, recording every package's identifiers in one info.
// Other imports resolve through std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	info  *types.Info
	done  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	if pkg := m.done[path]; pkg != nil {
		return pkg, nil
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.done[path] = pkg
	return pkg, nil
}

// recvNamed is the named type a method is declared on.
func recvNamed(method types.Object) *types.Named {
	t := method.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// origin maps a method or field of an instantiated generic type to the
// object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
