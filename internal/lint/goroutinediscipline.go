package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// GoroutineDiscipline verifies the single-decision-goroutine contract of
// DESIGN.md §7: every bandit Select/Update, every RNG draw, and every
// obs/quality event emission happens on one goroutine per engine — the
// goroutine that calls Process or Ingest. seqdeterminism
// already pins WHERE those calls may appear (which packages); this
// analyzer pins WHO may make them, generalizing the rule beyond RNG
// ordering to the whole decision/observability surface.
//
// The roots are explicit annotations. A function (or interface method)
// whose doc comment contains
//
//	// adaedge:decision-goroutine
//
// is a decision function: it may only be called from another decision
// function, or from a goroutine launched by a go statement that itself
// carries the marker (the sanctioned launch of THE decision goroutine, a
// worker that owns its engine outright; no product package launches one
// today, and the analyzer's testdata keeps the form covered). Entry
// packages (-entry-pkgs: experiments, cmd, examples) and _test.go files
// are exempt: their main goroutine IS the decision goroutine. The
// annotation is exported as an analyzer fact, so the discipline follows
// calls across packages under the
// unitchecker driver — core's Process calling quality.Tracker's
// emitters is checked even though the annotation lives in internal/obs.
//
// Two shapes are flagged: a call to a decision function from outside the
// annotated call graph (including from a go-launched closure without the
// marker — a second goroutine emitting events), and a decision function
// used as a value rather than called, which would let it escape to an
// arbitrary goroutine the lexical analysis cannot follow.
var GoroutineDiscipline = &analysis.Analyzer{
	Name:      "goroutinediscipline",
	Doc:       "restrict adaedge:decision-goroutine functions to the decision goroutine's call graph",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{new(isDecisionFn)},
	Run:       runGoroutineDiscipline,
}

// isDecisionFn marks a function or interface method annotated
// adaedge:decision-goroutine.
type isDecisionFn struct{}

func (*isDecisionFn) AFact()         {}
func (*isDecisionFn) String() string { return "decision-goroutine" }

// decisionMarker is the annotation that roots the discipline.
const decisionMarker = "adaedge:decision-goroutine"

// entryPkgs are packages whose main goroutine is the decision goroutine by
// construction (direct mode): binaries, experiment drivers, examples.
var entryPkgs = pkgList{
	"repro/adaedge", // public facade: re-exports the engines for direct-mode callers
	"repro/cmd",
	"repro/internal/experiments",
	"repro/examples",
}

func init() {
	GoroutineDiscipline.Flags.Var(&entryPkgs, "entry-pkgs",
		"comma-separated import paths whose main goroutine counts as the decision goroutine")
}

func runGoroutineDiscipline(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Pass 1 (all packages): export facts for annotated declarations, so
	// downstream packages see them.
	for _, file := range nonTestFiles(pass) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				if node.Doc != nil && strings.Contains(node.Doc.Text(), decisionMarker) {
					if obj := pass.TypesInfo.Defs[node.Name]; obj != nil {
						pass.ExportObjectFact(obj, new(isDecisionFn))
					}
				}
				return false
			case *ast.InterfaceType:
				for _, field := range node.Methods.List {
					if len(field.Names) == 0 {
						continue // embedded interface
					}
					doc := ""
					if field.Doc != nil {
						doc += field.Doc.Text()
					}
					if field.Comment != nil {
						doc += field.Comment.Text()
					}
					if strings.Contains(doc, decisionMarker) {
						if obj := pass.TypesInfo.Defs[field.Names[0]]; obj != nil {
							pass.ExportObjectFact(obj, new(isDecisionFn))
						}
					}
				}
			}
			return true
		})
	}

	// Entry packages: annotation collection only, no call checking.
	if entryPkgs.match(pass.Pkg.Path()) {
		return nil, nil
	}

	c := &goroutineChecker{pass: pass, markedGo: markedGoStmts(pass)}

	// Pass 2: calls to decision functions must come from decision context.
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || isTestFile(pass, n) {
			return false
		}
		call := n.(*ast.CallExpr)
		fn := calleeFunc(pass, call)
		if fn == nil || !c.isDecision(fn) {
			return true
		}
		if ok, why := c.decisionContext(stack); !ok {
			pass.Reportf(call.Pos(), "goroutinediscipline: call to decision-goroutine function %s from %s; annotate the caller or route through the sequencer — see DESIGN.md §7",
				fn.Name(), why)
		}
		return true
	})

	// Pass 3: decision functions must not escape as values.
	ins.Preorder([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node) {
		id := n.(*ast.Ident)
		if isTestFile(pass, id) {
			return
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || !c.isDecision(fn) {
			return
		}
		if c.callFuns[id] {
			return // the Fun (or Fun.Sel) of a call — pass 2's territory
		}
		pass.Reportf(id.Pos(), "goroutinediscipline: decision-goroutine function %s used as a value; an indirect call site cannot be checked — see DESIGN.md §7",
			fn.Name())
	})
	return nil, nil
}

type goroutineChecker struct {
	pass     *analysis.Pass
	markedGo map[*ast.GoStmt]bool
	// callFuns records identifiers that appear as the function operand of
	// a call, so pass 3 can skip them. Populated lazily on first use.
	callFuns map[*ast.Ident]bool
}

// isDecision reports whether obj carries the decision-goroutine fact
// (exported by this package or imported from a dependency). It also
// populates callFuns on first call, since both passes need the same walk.
func (c *goroutineChecker) isDecision(obj types.Object) bool {
	if c.callFuns == nil {
		c.callFuns = map[*ast.Ident]bool{}
		for _, file := range nonTestFiles(c.pass) {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					c.callFuns[fun] = true
				case *ast.SelectorExpr:
					c.callFuns[fun.Sel] = true
				}
				return true
			})
		}
	}
	return c.pass.ImportObjectFact(obj, new(isDecisionFn))
}

// decisionContext reports whether the innermost function enclosing the
// call stack is part of the decision goroutine's call graph, and if not,
// a description of what it is instead.
func (c *goroutineChecker) decisionContext(stack []ast.Node) (bool, string) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch node := stack[i].(type) {
		case *ast.FuncLit:
			// A closure launched by `go` starts a new goroutine: only the
			// marked launch sites run the decision goroutine. Any other
			// closure (deferred, inline, assigned) inherits its lexical
			// context — keep walking outward.
			if i >= 2 {
				if call, ok := stack[i-1].(*ast.CallExpr); ok && call.Fun == node {
					if g, ok := stack[i-2].(*ast.GoStmt); ok {
						if c.markedGo[g] {
							return true, ""
						}
						return false, "a go-launched goroutine without the adaedge:decision-goroutine launch marker"
					}
				}
			}
		case *ast.FuncDecl:
			if node.Doc != nil && strings.Contains(node.Doc.Text(), decisionMarker) {
				return true, ""
			}
			return false, node.Name.Name + ", which is not annotated adaedge:decision-goroutine"
		}
	}
	return false, "package-level initialization"
}

// markedGoStmts finds go statements sanctioned by an adaedge:decision-
// goroutine comment on the line above (or the line of) the statement —
// the explicit hand-off that launches THE decision goroutine.
func markedGoStmts(pass *analysis.Pass) map[*ast.GoStmt]bool {
	out := map[*ast.GoStmt]bool{}
	for _, file := range nonTestFiles(pass) {
		lines := map[int]bool{}
		for _, cg := range file.Comments {
			for _, cm := range cg.List {
				if strings.Contains(cm.Text, decisionMarker) {
					lines[pass.Fset.Position(cm.End()).Line] = true
				}
			}
		}
		if len(lines) == 0 {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			line := pass.Fset.Position(g.Pos()).Line
			if lines[line] || lines[line-1] {
				out[g] = true
			}
			return true
		})
	}
	return out
}
