// Package determinism implements the spandex-lint analyzer that keeps the
// deterministic simulation path deterministic.
//
// PR 1 made the evaluation hinge on bit-identical parallel replay
// (Result.Fingerprint, -verify-determinism). Nothing in the language stops
// a future change from quietly breaking that property: Go randomizes map
// iteration order per execution, wall-clock reads differ per run, the
// global math/rand source is shared and unseeded, and goroutines inside
// event callbacks race with the single-threaded engine. Each of those
// surfaces — late — as a diverging fingerprint. This analyzer rejects them
// at lint time, but only inside the packages that make up the sim path
// (Packages); test files and off-path utilities are exempt.
//
// Checks:
//
//  1. time.Now / time.Since / time.Until — simulated time must come from
//     sim.Engine.Now. A read of host time that no simulated result depends
//     on (a sweep cell's wall time) carries a //spandex:wallclock <why>
//     directive.
//  2. Global math/rand functions (rand.Intn, rand.Shuffle, ...) — use a
//     locally seeded *rand.Rand (workloads use workload.NewRand(seed)).
//  3. range over a map whose body feeds an order-sensitive sink. Bodies
//     performing only commutative, order-insensitive work (keyed map
//     writes, delete, integer/bitmask accumulation, loop-independent flag
//     sets) are accepted; everything else must iterate sorted keys
//     (detsort.Keys) or carry a //spandex:maprange <why> directive.
//  4. go statements and channel operations lexically inside engine event
//     callbacks — func literals passed to Engine.Schedule/ScheduleAt and
//     HandleMessage bodies — which would hand event effects to the Go
//     scheduler instead of the deterministic event queue.
//  5. fmt formatting calls (Sprintf and friends) inside those same
//     callbacks. Event callbacks are the per-message hot path; formatting
//     there allocates and stringifies on every message even when no trace
//     sink is installed. Instrumentation must emit structured obs.Events
//     and let the sink (off the sim path) do the formatting. Arguments to
//     panic are exempt: a dying run may format freely.
//  6. sync.Map.Range with an order-sensitive callback. sync.Map iterates
//     in unspecified order exactly like a plain map, but hides behind a
//     method call the map-range syntax check cannot see. The callback
//     body is classified with the same commutativity rules as a range
//     body; `return true` (keep iterating) is accepted, `return false`
//     (early stop) is order-dependent. //spandex:maprange suppresses.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"spandex/internal/analysis"
)

// Packages lists the import paths forming the deterministic sim path.
// The root package spandex assembles machines, runs sweeps and reduces
// their results into figures and summaries, whose output must not depend
// on map order either. internal/conform (the differential oracle: case
// generation, execution order, shrinking), internal/obs (event
// decimation, sink ordering) and internal/mcheck (replay-based
// backtracking and the transition memo, which assume a replayed world is
// identical bit for bit) are deterministic-replay surfaces too — a
// nondeterministic iteration there diverges shrink results, trace files
// or explored state spaces rather than fingerprints, which is just as
// corrosive and harder to notice.
// Tests may append to this to bring testdata packages in scope.
var Packages = []string{
	"spandex/internal/sim",
	"spandex/internal/noc",
	"spandex/internal/core",
	"spandex/internal/mesi",
	"spandex/internal/denovo",
	"spandex/internal/gpucoh",
	"spandex/internal/hmesi",
	"spandex/internal/device",
	"spandex/internal/workload",
	"spandex/internal/dram",
	"spandex/internal/conform",
	"spandex/internal/obs",
	"spandex/internal/mcheck",
	"spandex",
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source. Constructors (New, NewSource, NewZipf) are fine:
// they are how deterministic local generators are made.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, order-sensitive map iteration and goroutines on the deterministic sim path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !onSimPath(pass.Pkg.Path()) {
		return nil
	}
	d := &checker{pass: pass, info: pass.TypesInfo}
	for _, f := range pass.Files {
		ast.Inspect(f, d.node)
	}
	return nil
}

func onSimPath(path string) bool {
	for _, p := range Packages {
		if path == p {
			return true
		}
	}
	return false
}

type checker struct {
	pass *analysis.Pass
	info *types.Info
	// callbackDepth > 0 while walking an engine event callback.
	callbackDepth int
	// panicDepth > 0 while walking the arguments of a panic call.
	panicDepth int
	// rangeCallbackDepth > 0 while classifying a sync.Map.Range callback
	// body, where `return true` means "keep iterating" and commutes.
	rangeCallbackDepth int
}

func (d *checker) node(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		d.call(n)
		d.syncMapRange(n)
		// panic arguments are exempt from the hot-path formatting check:
		// walk them with the exemption armed, then skip the default walk.
		if isPanic(d.info, n) {
			d.panicDepth++
			for _, arg := range n.Args {
				ast.Inspect(arg, d.node)
			}
			d.panicDepth--
			return false
		}
		// Func literals passed to Engine.Schedule/ScheduleAt run on the
		// event queue: walk them as callbacks, then skip the default walk.
		if isEngineSchedule(d.info, n) {
			for _, arg := range n.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					d.walkCallback(lit.Body)
				} else {
					ast.Inspect(arg, d.node)
				}
			}
			ast.Inspect(n.Fun, d.node)
			return false
		}
	case *ast.FuncDecl:
		if n.Recv != nil && n.Name.Name == "HandleMessage" && n.Body != nil {
			d.walkCallback(n.Body)
			return false
		}
	case *ast.RangeStmt:
		d.rangeStmt(n)
	case *ast.GoStmt:
		d.callbackOnly(n.Pos(), "go statement")
	case *ast.SendStmt:
		d.callbackOnly(n.Pos(), "channel send")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			d.callbackOnly(n.Pos(), "channel receive")
		}
	case *ast.SelectStmt:
		d.callbackOnly(n.Pos(), "select statement")
	}
	return true
}

// walkCallback walks an event-callback body with the callback checks armed.
func (d *checker) walkCallback(body *ast.BlockStmt) {
	d.callbackDepth++
	ast.Inspect(body, d.node)
	d.callbackDepth--
}

// callbackOnly reports concurrency constructs when inside a callback.
func (d *checker) callbackOnly(pos token.Pos, what string) {
	if d.callbackDepth > 0 {
		d.pass.Reportf(pos, "%s inside an engine event callback: event handlers run on the deterministic event queue; hand work to Engine.Schedule instead", what)
	}
}

// call flags wall-clock and global-rand calls anywhere in the package.
func (d *checker) call(n *ast.CallExpr) {
	sel, ok := n.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := d.info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			if d.pass.HasDirective(n, "wallclock") {
				return
			}
			d.pass.Reportf(n.Pos(), "time.%s on the deterministic sim path: simulated time must come from sim.Engine.Now", sel.Sel.Name)
		case "After", "Tick", "NewTimer", "NewTicker":
			d.pass.Reportf(n.Pos(), "time.%s on the deterministic sim path: wall-clock timers race the event queue; schedule with sim.Engine.Schedule", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[sel.Sel.Name] {
			d.pass.Reportf(n.Pos(), "global rand.%s on the deterministic sim path: use a locally seeded *rand.Rand (e.g. workload.NewRand(seed))", sel.Sel.Name)
		}
	case "fmt":
		if fmtFormatFuncs[sel.Sel.Name] && d.callbackDepth > 0 && d.panicDepth == 0 {
			d.pass.Reportf(n.Pos(), "fmt.%s inside an engine event callback: per-message formatting runs on the sim hot path even with tracing disabled; emit a structured obs.Event and format in the sink (panic arguments are exempt)", sel.Sel.Name)
		}
	}
}

// fmtFormatFuncs are the fmt functions that build or write a formatted
// string. Scanners are irrelevant; they never appear on the sim path.
var fmtFormatFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

// isPanic reports whether call is the builtin panic.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name() == "panic"
	}
	// In testdata fakes panic may be unresolved; match by name with no
	// other object bound.
	return id.Name == "panic" && info.Uses[id] == nil && info.Defs[id] == nil
}

// syncMapRange flags sync.Map.Range calls with an order-sensitive
// callback — the method-shaped twin of the map-range check, which the
// range-statement syntax walk cannot see.
func (d *checker) syncMapRange(n *ast.CallExpr) {
	sel, ok := n.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" {
		return
	}
	tv, ok := d.info.Types[sel.X]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Map" ||
		named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return
	}
	if d.pass.HasDirective(n, "maprange") {
		return
	}
	if len(n.Args) == 1 {
		if lit, ok := n.Args[0].(*ast.FuncLit); ok {
			loopVars := make(map[types.Object]bool)
			for _, field := range lit.Type.Params.List {
				for _, name := range field.Names {
					if obj := d.info.Defs[name]; obj != nil {
						loopVars[obj] = true
					}
				}
			}
			d.rangeCallbackDepth++
			insensitive := d.orderInsensitive(lit.Body.List, loopVars)
			d.rangeCallbackDepth--
			if insensitive {
				return
			}
		}
	}
	d.pass.Reportf(n.Pos(), "nondeterministic sync.Map.Range feeds an order-sensitive sink: collect and sort the keys (detsort.Keys over a plain map) or add //spandex:maprange <why>")
}

// rangeStmt flags map iterations whose bodies are order-sensitive.
func (d *checker) rangeStmt(n *ast.RangeStmt) {
	tv, ok := d.info.Types[n.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if d.pass.HasDirective(n, "maprange") {
		return
	}
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{n.Key, n.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := d.info.Defs[id]; obj != nil {
				loopVars[obj] = true
			} else if obj := d.info.Uses[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	if d.orderInsensitive(n.Body.List, loopVars) {
		return
	}
	d.pass.Reportf(n.Pos(), "nondeterministic map iteration over %s feeds an order-sensitive sink: iterate detsort.Keys(m) or add //spandex:maprange <why>", types.TypeString(tv.Type, types.RelativeTo(d.pass.Pkg)))
}

// orderInsensitive reports whether executing stmts once per map element
// yields the same state regardless of element order. The classification is
// conservative: only provably commutative statement forms are accepted.
func (d *checker) orderInsensitive(stmts []ast.Stmt, loopVars map[types.Object]bool) bool {
	for _, s := range stmts {
		if !d.stmtOK(s, loopVars) {
			return false
		}
	}
	return true
}

func (d *checker) stmtOK(s ast.Stmt, loopVars map[types.Object]bool) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return d.assignOK(s, loopVars)
	case *ast.IncDecStmt:
		return d.lvalueOK(s.X, true)
	case *ast.ExprStmt:
		// delete(m, k) is the only call with commutative effect.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && d.info.Uses[id] == nil {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := d.info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !d.stmtOK(s.Init, loopVars) {
			return false
		}
		if !d.pureExpr(s.Cond) {
			return false
		}
		if !d.orderInsensitive(s.Body.List, loopVars) {
			return false
		}
		if s.Else != nil {
			return d.stmtOK(s.Else, loopVars)
		}
		return true
	case *ast.BlockStmt:
		return d.orderInsensitive(s.List, loopVars)
	case *ast.RangeStmt:
		return d.pureExpr(s.X) && d.orderInsensitive(s.Body.List, loopVars)
	case *ast.ForStmt:
		if s.Init != nil && !d.stmtOK(s.Init, loopVars) {
			return false
		}
		if s.Cond != nil && !d.pureExpr(s.Cond) {
			return false
		}
		if s.Post != nil && !d.stmtOK(s.Post, loopVars) {
			return false
		}
		return d.orderInsensitive(s.Body.List, loopVars)
	case *ast.SwitchStmt:
		if s.Init != nil && !d.stmtOK(s.Init, loopVars) {
			return false
		}
		if s.Tag != nil && !d.pureExpr(s.Tag) {
			return false
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if !d.pureExpr(e) {
					return false
				}
			}
			if !d.orderInsensitive(cc.Body, loopVars) {
				return false
			}
		}
		return true
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			for _, v := range vs.Values {
				if !d.pureExpr(v) {
					return false
				}
			}
		}
		return true
	case *ast.BranchStmt:
		// continue skips an element, which commutes; break terminates
		// early and is order-dependent.
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.ReturnStmt:
		// In a sync.Map.Range callback, `return true` is that loop's
		// continue; `return false` stops early and is order-dependent.
		if d.rangeCallbackDepth > 0 && len(s.Results) == 1 {
			if id, ok := ast.Unparen(s.Results[0]).(*ast.Ident); ok && id.Name == "true" {
				return true
			}
		}
		return false
	case *ast.EmptyStmt:
		return true
	}
	// return, break, append-into-slice via assignment (handled above),
	// sends, calls with effects, defer, ... — all order-sensitive.
	return false
}

// assignOK classifies one assignment as commutative-per-element or not.
func (d *checker) assignOK(s *ast.AssignStmt, loopVars map[types.Object]bool) bool {
	for _, rhs := range s.Rhs {
		if !d.pureExpr(rhs) {
			return false
		}
	}
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range s.Lhs {
			switch lhs := lhs.(type) {
			case *ast.Ident:
				if lhs.Name == "_" {
					continue
				}
				if s.Tok == token.DEFINE {
					continue // fresh per-iteration temp
				}
				// Writing the same loop-independent value every iteration
				// (found = true) is idempotent; anything keyed off the
				// element is last-write-wins and order-dependent.
				if i < len(s.Rhs) && d.referencesAny(s.Rhs[i], loopVars) {
					return false
				}
			case *ast.IndexExpr:
				// Keyed writes commute across distinct keys; same-key
				// rewrites only collide with themselves if the key is the
				// loop key, which maps visit once.
				if !d.lvalueOK(lhs, false) {
					return false
				}
			default:
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		// Accumulation commutes for integers; floating-point addition does
		// not associate and strings/slices concatenate in order.
		return len(s.Lhs) == 1 && d.lvalueOK(s.Lhs[0], true)
	case token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN,
		token.SHL_ASSIGN, token.SHR_ASSIGN:
		return len(s.Lhs) == 1 && d.lvalueOK(s.Lhs[0], true)
	}
	return false
}

// lvalueOK accepts idents, selectors and index expressions as assignment
// targets; when needInt is set the element type must be an integer (the
// commutativity argument fails for floats and strings).
func (d *checker) lvalueOK(e ast.Expr, needInt bool) bool {
	switch x := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	case *ast.IndexExpr:
		if !d.pureExpr(x.Index) || !d.pureExpr(x.X) {
			return false
		}
	case *ast.StarExpr:
		if !d.pureExpr(x.X) {
			return false
		}
	default:
		return false
	}
	if !needInt {
		return true
	}
	tv, ok := d.info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// referencesAny reports whether expr mentions any of the given objects.
func (d *checker) referencesAny(expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := d.info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// pureExpr reports whether evaluating e has no side effects and calls no
// functions (type conversions and len/cap/min/max excepted).
func (d *checker) pureExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return d.pureExpr(e.X)
	case *ast.SelectorExpr:
		return d.pureExpr(e.X)
	case *ast.IndexExpr:
		return d.pureExpr(e.X) && d.pureExpr(e.Index)
	case *ast.SliceExpr:
		return d.pureExpr(e.X) && d.pureExpr(e.Low) && d.pureExpr(e.High) && d.pureExpr(e.Max)
	case *ast.StarExpr:
		return d.pureExpr(e.X)
	case *ast.UnaryExpr:
		return e.Op != token.ARROW && d.pureExpr(e.X)
	case *ast.BinaryExpr:
		return d.pureExpr(e.X) && d.pureExpr(e.Y)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if !d.pureExpr(kv.Key) || !d.pureExpr(kv.Value) {
					return false
				}
				continue
			}
			if !d.pureExpr(elt) {
				return false
			}
		}
		return true
	case *ast.KeyValueExpr:
		return d.pureExpr(e.Key) && d.pureExpr(e.Value)
	case *ast.TypeAssertExpr:
		return d.pureExpr(e.X)
	case *ast.CallExpr:
		// Conversions and pure builtins only.
		if tv, ok := d.info.Types[e.Fun]; ok && tv.IsType() {
			for _, a := range e.Args {
				if !d.pureExpr(a) {
					return false
				}
			}
			return true
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := d.info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max", "real", "imag", "complex":
					for _, a := range e.Args {
						if !d.pureExpr(a) {
							return false
						}
					}
					return true
				}
			}
		}
		return false
	}
	return false
}

// isEngineSchedule reports whether call is Engine.Schedule or
// Engine.ScheduleAt (matched structurally by method and receiver type
// name, so testdata fakes qualify too).
func isEngineSchedule(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Schedule" && sel.Sel.Name != "ScheduleAt" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}
