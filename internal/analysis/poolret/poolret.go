// Package poolret implements the spandex-lint analyzer that enforces the
// object-pool ownership discipline introduced with the engine hot-path
// overhaul: once a pooled object has been released — handed back via
// Pool.Put or one of the free* helpers that wrap it (LLC.freeTxn,
// Directory.freeTxn, GPUL2.freeTxn, ...) — the releasing function must
// not touch it again.
//
// sim.Pool recycles objects without zeroing, so a released object can be
// handed to the next Get caller and overwritten at any later point; a
// read through the stale pointer then observes another transaction's
// state, and a write corrupts it. Unlike a leaked heap object this never
// crashes — it silently perturbs simulation results, which is exactly the
// class of bug the deterministic-fingerprint infrastructure exists to
// catch after the fact. The rule is therefore enforced at the source:
// release is the last touch; drain queues and read fields first, or copy
// what outlives the release.
//
// The analysis is lexical and per-function, on the scope walker it shares
// with the mutafter analyzer (analysis.ScopeWalker): after a statement
// that passes a variable to
//
//   - a Put method on a receiver of a named type Pool (sim.Pool[T], and
//     any future pool with the same shape), or
//   - a call whose name begins with free/Free taking a pointer-to-struct
//     argument (the project's freeTxn-style wrappers), or
//   - a same-package function whose depth-1 summary says it releases the
//     corresponding parameter (see below),
//
// later statements in the same or enclosing block sequence may not
// mention that variable at all — read, write, call argument, or closure
// capture. Rebinding the variable (t = pool.Get(), t = ...) ends
// tracking; a release inside a conditional branch does not leak past the
// branch, so the common "if done { free; return }" shape stays clean.
//
// A purely lexical pass misses one level of indirection: a helper that
// hands its parameter back to the pool but is not free*-named hides the
// release from its callers. A pre-pass therefore summarizes every
// function declared in the package — which pointer-to-struct parameters
// its body releases on the fall-through path (branch-only releases do not
// count, matching the intraprocedural branch rule) — and calls to a
// summarized function release the corresponding arguments at the call
// site. Summaries are depth-1: they are computed from direct Pool.Put and
// free*-named calls only, so a chain of two unnamed helpers still hides a
// release (none exist in the tree; deepening the summary is mechanical if
// one appears).
//
// Suppress a deliberate violation with a justified //spandex:poolret
// comment on or above the flagged line.
package poolret

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"spandex/internal/analysis"
)

// Analyzer is the poolret analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poolret",
	Doc:  "forbid using a pooled object after releasing it via Pool.Put/free*",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	(&tracker{pass: pass, sums: summarize(pass)}).walker().Funcs(pass.Files)
	return nil
}

// summarize computes the depth-1 release summaries: for every function
// declared in the package, the indices of the pointer-to-struct
// parameters its body releases on the fall-through path. The walk reuses
// the tracker with reporting off and no summaries of its own (that is
// what bounds the depth at one), so the branch-visibility rule is
// identical to the intraprocedural analysis: a release inside an if/for
// body stays inside it and does not make the function a releaser.
func summarize(pass *analysis.Pass) map[types.Object][]int {
	sums := map[types.Object][]int{}
	w := (&tracker{pass: pass, silent: true}).walker()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fobj := pass.TypesInfo.Defs[fd.Name]
			if fobj == nil {
				continue
			}
			rel := map[types.Object]string{}
			w.List(fd.Body.List, rel)
			var idxs []int
			i := 0
			for _, field := range fd.Type.Params.List {
				if len(field.Names) == 0 {
					i++
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						if _, released := rel[obj]; released {
							idxs = append(idxs, i)
						}
					}
					i++
				}
			}
			if len(idxs) > 0 {
				sums[fobj] = idxs
			}
		}
	}
	return sums
}

type tracker struct {
	pass *analysis.Pass
	// sums maps a function object to the parameter indices it releases;
	// nil while computing the summaries themselves.
	sums map[types.Object][]int
	// silent suppresses reporting (the summary pre-pass walks every body
	// a first time; diagnostics belong to the main pass only).
	silent bool
}

func (tr *tracker) walker() *analysis.ScopeWalker {
	return &analysis.ScopeWalker{Info: tr.pass.TypesInfo, Check: tr.check, Handoff: tr.releases}
}

// check reports every mention of a released variable in a statement or
// control expression: read, write, call argument or closure capture. A
// plain identifier an assignment rebinds is not a use (the walker ends
// its tracking).
func (tr *tracker) check(n ast.Node, rel map[types.Object]string) {
	rebound := analysis.Rebound(n)
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || slices.Contains(rebound, id) {
			return true
		}
		via, ok := rel[tr.pass.TypesInfo.ObjectOf(id)]
		if ok && !tr.silent && !tr.pass.HasDirective(id, "poolret") {
			tr.pass.Reportf(id.Pos(),
				"pooled %s used after release to %s: the pool owns it after release; drain queues and copy fields first",
				id.Name, via)
		}
		return true
	})
}

// releases records the variables one call releases: passed to Put on a
// Pool-typed receiver, or to a free*-named call as a pointer-to-struct
// argument, or at a summarized releaser's released-parameter indices.
func (tr *tracker) releases(call *ast.CallExpr, rel map[types.Object]string) {
	name := analysis.CalleeName(call)
	release := func(arg ast.Expr) {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := tr.pass.TypesInfo.ObjectOf(id); obj != nil && isPtrToStruct(obj.Type()) {
				rel[obj] = name
			}
		}
	}
	if (name == "Put" && tr.poolReceiver(call)) || strings.HasPrefix(name, "free") || strings.HasPrefix(name, "Free") {
		for _, arg := range call.Args {
			release(arg)
		}
		return
	}
	// Depth-1 interprocedural: a call to a summarized releaser frees
	// exactly the arguments at its released-parameter indices.
	if tr.sums == nil {
		return
	}
	for _, ix := range tr.sums[tr.calleeObj(call)] {
		if ix < len(call.Args) {
			release(call.Args[ix])
		}
	}
}

// poolReceiver reports whether call is a method call on a value whose
// type (after dereferencing) is a named type called Pool — sim.Pool[T]
// in the real tree, any Pool-shaped type in testdata.
func (tr *tracker) poolReceiver(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := tr.pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// calleeObj resolves the function object a direct call targets (plain
// function or method); nil for indirect calls through values.
func (tr *tracker) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return tr.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return tr.pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// isPtrToStruct reports whether t is a pointer to a struct type — the
// shape of every pooled object (txns, probes, write-back records).
func isPtrToStruct(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	_, isStruct := ptr.Elem().Underlying().(*types.Struct)
	return isStruct
}
