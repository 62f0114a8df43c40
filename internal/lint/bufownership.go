package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// BufOwnership mechanizes the DESIGN.md §10 buffer-ownership contract that
// PR 6's zero-alloc hot path hand-enforces: pooled trial buffers (the
// encBuf/decBuf pointer boxes in internal/core) belong to their trial
// until released at exactly one site, the released encoding is dead, and
// a pooled wrapper must never outlive its release by escaping into a
// long-lived structure or another goroutine. Codecs, for their part, must
// not retain the caller-owned buffers their *Into/CompressRatio/Recode
// paths borrow.
//
// Inside the pool packages (-pool-pkgs) the analyzer flags:
//
//   - double-release: a second release-family call (release,
//     releaseDecoded) on the same trial in the same statement sequence —
//     runtime idempotence makes this latent rather than fatal, but it
//     always means the single-release-site rule was broken;
//   - use-after-release: reading a trial (its encoding, decode slice or
//     wrapper) after its release call in the same statement sequence,
//     including returning the released encoding;
//   - wrapper escape: a pooled wrapper stored in an exported struct,
//     declared as a channel element, sent on a channel, assigned to a
//     package-level variable, or handed to a go-launched goroutine —
//     each a way for the buffer to outlive the release site that is
//     supposed to own it.
//
// Inside the codec packages (-into-pkgs) it flags Compress*/Decompress*/
// Recode* methods that store a caller-supplied buffer parameter (dst,
// values, enc) into the receiver or a package-level variable: "a codec
// must not keep any reference to dst, values or enc.Data past the call"
// (DESIGN.md §10).
//
// The analysis is intra-procedural and lexical — the vendored x/tools
// subset this module builds against has no go/ssa, so there is no alias
// or flow analysis behind it. Like lockdiscipline, it is a CI tripwire
// for the mistakes that actually happen (a sweep added after a release, a
// wrapper smuggled through a channel), not a proof; TestAllocs*, the
// aliasing property tests and the escape gate remain the runtime and
// compile-time backstops.
var BufOwnership = &analysis.Analyzer{
	Name:     "bufownership",
	Doc:      "enforce the DESIGN.md §10 pooled-buffer ownership rules",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runBufOwnership,
}

// bufPoolPkgs are the packages that own pooled trial wrappers.
var bufPoolPkgs = pkgList{"repro/internal/core"}

// bufIntoPkgs are the codec packages whose buffer-borrowing methods must
// not retain caller buffers.
var bufIntoPkgs = pkgList{"repro/internal/compress"}

// bufWrapperNames are the pooled wrapper type names inside the pool
// packages.
var bufWrapperNames = pkgList{"encBuf", "decBuf"}

// bufReleaseNames are the release-family method names. A call through any
// of them ends the receiver's ownership of its pooled buffer.
var bufReleaseNames = pkgList{"release", "releaseDecoded"}

func init() {
	BufOwnership.Flags.Var(&bufPoolPkgs, "pool-pkgs",
		"comma-separated import paths of packages owning pooled buffer wrappers")
	BufOwnership.Flags.Var(&bufIntoPkgs, "into-pkgs",
		"comma-separated import paths of codec packages with buffer-borrowing methods")
	BufOwnership.Flags.Var(&bufWrapperNames, "wrappers",
		"comma-separated pooled wrapper type names")
	BufOwnership.Flags.Var(&bufReleaseNames, "releases",
		"comma-separated release-family method names")
}

// bufRetainMethodRx matches the codec methods that borrow caller buffers.
var bufRetainMethodRx = regexp.MustCompile(`^(Compress|Decompress|Recode)`)

func runBufOwnership(pass *analysis.Pass) (interface{}, error) {
	if bufPoolPkgs.match(pass.Pkg.Path()) {
		runPoolOwnership(pass)
	}
	if bufIntoPkgs.match(pass.Pkg.Path()) {
		runCodecRetention(pass)
	}
	return nil, nil
}

// nameSet turns a pkgList flag into a membership set.
func nameSet(l pkgList) map[string]bool {
	out := make(map[string]bool, len(l))
	for _, n := range l {
		out[n] = true
	}
	return out
}

// --- pool-package rules -------------------------------------------------

type poolChecker struct {
	pass     *analysis.Pass
	wrappers map[string]bool
	releases map[string]bool
	// carriers are the named struct types of this package that legally
	// hold a wrapper field (the trial structs and goroutine-local scratch,
	// all unexported by rule).
	carriers map[types.Object]bool
}

func runPoolOwnership(pass *analysis.Pass) {
	c := &poolChecker{
		pass:     pass,
		wrappers: nameSet(bufWrapperNames),
		releases: nameSet(bufReleaseNames),
		carriers: map[types.Object]bool{},
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Pass 1: struct declarations. A wrapper field is legal only in an
	// unexported struct of the pool package itself — exporting the struct
	// publishes the pooled buffer beyond the ownership discipline.
	for _, file := range nonTestFiles(pass) {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !c.isWrapperTypeExpr(field.Type) {
					continue
				}
				if ts.Name.IsExported() {
					pass.Reportf(field.Pos(), "bufownership: pooled wrapper field in exported struct %s; pooled buffers must stay inside unexported carriers — see DESIGN.md §10",
						ts.Name.Name)
				} else if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
					c.carriers[obj] = true
				}
			}
			return true
		})
	}

	ins.WithStack([]ast.Node{
		(*ast.ChanType)(nil),
		(*ast.SendStmt)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.GoStmt)(nil),
		(*ast.FuncDecl)(nil),
	}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || isTestFile(c.pass, n) {
			return false
		}
		switch node := n.(type) {
		case *ast.ChanType:
			if c.isWrapperTypeExpr(node.Value) {
				c.pass.Reportf(node.Pos(), "bufownership: channel of pooled wrapper; a buffer sent cross-goroutine outlives its release site — see DESIGN.md §10")
			}
		case *ast.SendStmt:
			if c.isWrapperValue(node.Value) {
				c.pass.Reportf(node.Value.Pos(), "bufownership: pooled wrapper sent on a channel; ownership cannot follow it — see DESIGN.md §10")
			}
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if i >= len(node.Rhs) {
					break
				}
				if !c.isWrapperValue(node.Rhs[i]) {
					continue
				}
				if id := baseIdent(lhs); id != nil && isPkgLevelVar(c.pass, id) {
					c.pass.Reportf(node.Rhs[i].Pos(), "bufownership: pooled wrapper stored in package-level variable %s; the pool, not a global, owns idle buffers — see DESIGN.md §10", id.Name)
				}
			}
		case *ast.GoStmt:
			c.checkGoHandOff(node)
		case *ast.FuncDecl:
			if node.Body != nil {
				c.checkReleaseDiscipline(node)
			}
		}
		return true
	})
}

// isWrapperTypeExpr reports whether the type expression denotes a pooled
// wrapper (possibly via pointer/paren).
func (c *poolChecker) isWrapperTypeExpr(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.StarExpr:
		return c.isWrapperTypeExpr(t.X)
	case *ast.ParenExpr:
		return c.isWrapperTypeExpr(t.X)
	case *ast.Ident:
		return c.isWrapperNamed(c.pass.TypesInfo.TypeOf(e))
	}
	return c.isWrapperNamed(c.pass.TypesInfo.TypeOf(e))
}

// isWrapperNamed reports whether t (or its pointee) is a named wrapper
// type declared in this package.
func (c *poolChecker) isWrapperNamed(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() == c.pass.Pkg && c.wrappers[obj.Name()]
}

// isWrapperValue reports whether the expression's static type is a pooled
// wrapper.
func (c *poolChecker) isWrapperValue(e ast.Expr) bool {
	return c.isWrapperNamed(c.pass.TypesInfo.TypeOf(e))
}

// checkGoHandOff flags pooled wrappers crossing into a go-launched
// goroutine, as arguments or as captured variables.
func (c *poolChecker) checkGoHandOff(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if c.isWrapperValue(arg) {
			c.pass.Reportf(arg.Pos(), "bufownership: pooled wrapper passed to a go-launched goroutine; release must stay on the owning goroutine — see DESIGN.md §10")
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || !c.isWrapperNamed(obj.Type()) {
			return true
		}
		// A variable declared inside the literal is goroutine-local.
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true
		}
		c.pass.Reportf(id.Pos(), "bufownership: pooled wrapper %s captured by a go-launched closure; the buffer would outlive its owner's release — see DESIGN.md §10", id.Name)
		return true
	})
}

// carrierReceiver reports whether the method call's receiver type is a
// carrier struct (one with a pooled wrapper field).
func (c *poolChecker) carrierReceiver(sel *ast.SelectorExpr) bool {
	t := c.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && c.carriers[named.Obj()]
}

// exprPath flattens an ident/selector chain to a dotted path ("t",
// "p.pending"). Returns "" for untrackable shapes (calls, index
// expressions): the lexical tracker only follows plain paths.
func exprPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.ParenExpr:
		return exprPath(x.X)
	case *ast.StarExpr:
		return exprPath(x.X)
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// releaseCallPath returns the receiver path of a release-family method
// call on a carrier, or "".
func (c *poolChecker) releaseCallPath(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !c.releases[sel.Sel.Name] || !c.carrierReceiver(sel) {
		return ""
	}
	return exprPath(sel.X)
}

// checkReleaseDiscipline walks every statement sequence of fn and flags
// double releases and uses after release within the same sequence. The
// tracking is per-block and in lexical order: releases in nested branches
// do not poison the enclosing sequence (the branch may be the single
// sanctioned site), while any use textually after an unconditional
// release in the same sequence is dead by §10.
func (c *poolChecker) checkReleaseDiscipline(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		c.checkBlockSequence(block.List)
		return true
	})
}

func (c *poolChecker) checkBlockSequence(stmts []ast.Stmt) {
	released := map[string]token.Pos{}
	for _, stmt := range stmts {
		if as, ok := stmt.(*ast.AssignStmt); ok {
			// Reassignment of a tracked path re-arms it (a fresh trial
			// now lives there) — only the right-hand sides count as uses.
			for _, lhs := range as.Lhs {
				if p := exprPath(lhs); p != "" {
					clearPath(released, p)
				}
			}
			if len(released) > 0 {
				for _, rhs := range as.Rhs {
					c.flagReleasedUses(rhs, released)
				}
			}
		} else if len(released) > 0 {
			c.flagReleasedUses(stmt, released)
		}
		// Register releases appearing directly in this sequence. Releases
		// inside nested blocks are branch-conditional; this lexical
		// tracker cannot judge them and stays silent. Deferred releases
		// run last and neither kill later uses nor count as the site.
		if s, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := s.X.(*ast.CallExpr); ok {
				if p := c.releaseCallPath(call); p != "" {
					released[p] = call.Pos()
				}
			}
		}
	}
}

// matchReleased returns the released path p aliases (itself or a prefix),
// or "".
func matchReleased(released map[string]token.Pos, p string) string {
	for rp := range released {
		if p == rp || strings.HasPrefix(p, rp+".") {
			return rp
		}
	}
	return ""
}

// flagReleasedUses reports references to released paths inside node: a
// second release-family call is a double release, anything else a use
// after release.
func (c *poolChecker) flagReleasedUses(node ast.Node, released map[string]token.Pos) {
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if p := c.releaseCallPath(call); p != "" {
				if rp := matchReleased(released, p); rp != "" {
					c.pass.Reportf(call.Pos(), "bufownership: %s released twice (release is single-site per trial; a second call hides an ownership bug) — see DESIGN.md §10", rp)
					delete(released, rp) // one report per path is enough
					return false
				}
			}
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		p := exprPath(e)
		if p == "" {
			return true
		}
		if rp := matchReleased(released, p); rp != "" {
			c.pass.Reportf(e.Pos(), "bufownership: use of %s after its release; the pooled buffer may already be reused by another trial — see DESIGN.md §10", p)
			delete(released, rp)
			return false
		}
		return true
	})
}

// clearPath drops p and any sub-paths from released.
func clearPath(released map[string]token.Pos, p string) {
	for rp := range released {
		if rp == p || strings.HasPrefix(rp, p+".") {
			delete(released, rp)
		}
	}
}

// --- codec-package rule -------------------------------------------------

// runCodecRetention flags Compress*/Decompress*/Recode* methods that store
// a caller-supplied parameter (the borrowed dst/values buffer or the
// Encoded they decode) into the receiver or a package-level variable.
func runCodecRetention(pass *analysis.Pass) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Recv == nil || fn.Body == nil || isTestFile(pass, fn) {
			return
		}
		if !bufRetainMethodRx.MatchString(fn.Name.Name) {
			return
		}
		params := map[types.Object]bool{}
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil && retainableParam(obj.Type()) {
					params[obj] = true
				}
			}
		}
		if len(params) == 0 {
			return
		}
		var recvObj types.Object
		if len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
			recvObj = pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				lhsID := baseIdent(lhs)
				if lhsID == nil {
					continue
				}
				lhsObj := pass.TypesInfo.Uses[lhsID]
				sink := ""
				if recvObj != nil && lhsObj == recvObj {
					if _, plain := lhs.(*ast.Ident); !plain {
						sink = "the receiver"
					}
				} else if isPkgLevelVar(pass, lhsID) {
					sink = "a package-level variable"
				}
				if sink == "" {
					continue
				}
				if pid := paramRoot(pass, as.Rhs[i], params); pid != "" {
					pass.Reportf(as.Rhs[i].Pos(), "bufownership: %s stores caller buffer %s in %s; codecs must not retain dst/values/enc past the call — see DESIGN.md §10",
						fn.Name.Name, pid, sink)
				}
			}
			return true
		})
	})
}

// retainableParam reports whether a parameter type is a borrowable buffer:
// a slice, or a struct carrying one (compress.Encoded).
func retainableParam(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if _, ok := u.Field(i).Type().Underlying().(*types.Slice); ok {
				return true
			}
		}
	}
	return false
}

// paramRoot returns the name of the first tracked parameter the
// expression's value derives from lexically (dst, dst[:0], enc.Data), or
// "".
func paramRoot(pass *analysis.Pass, e ast.Expr, params map[types.Object]bool) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && params[obj] {
			found = id.Name
			return false
		}
		return true
	})
	return found
}

// isPkgLevelVar reports whether id resolves to a package-level variable.
func isPkgLevelVar(pass *analysis.Pass, id *ast.Ident) bool {
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
