// Package transgraph statically extracts each protocol controller's
// transition relation — (state, incoming message) → (next states, emitted
// messages) — from its Go source, for documentation (JSON and DOT graphs
// under docs/transitions/, written by cmd/spandex-graph) and for the
// dynamic coverage cross-check (spandex-graph -diff): every (state,
// message) pair the Spandex LLC processes at runtime must appear in the
// statically extracted graph, or the graph (or the protocol) is wrong.
//
// A unit is any type in an analyzed package with a HandleMessage
// (*proto.Message) method. Two extraction sources feed a unit's graph:
//
//   - Automatic: the switch over m.Type in HandleMessage is walked; each
//     case body (following same-package calls to bounded depth) yields
//     from-states (comparisons and switches over state-enum constants),
//     to-states (assignments of state-enum constants, and state-enum
//     constants passed as call arguments — the handleData(m, S) idiom),
//     and emitted messages (proto.Message composite literals' Type field
//     and proto.MsgType constants passed as call arguments). Packages
//     whose state is bit-mask encoded rather than enum-typed produce
//     from="*" (any state) automatic entries.
//
//   - Annotations: //spandex:transition directives inside the unit's
//     methods declare transitions explicitly, in whatever canonical state
//     vocabulary the controller documents (the LLC's I/F/V/S/O/SO ±
//     transaction suffix — see core.stateLabel). Grammar (read by
//     analysis.Directive; every list splits on ',' and '|'):
//
//     //spandex:transition <Msg> from=<S1|S2> [to=<S3|S4>] [emits=<M1,M2>]
//
//     An omitted to= means the state is unchanged. When a unit has any
//     annotations they are authoritative and automatic entries are
//     dropped: annotated units opt into precision, and the cross-check
//     (DiffCoverage) is only meaningful against precise graphs.
//
// Annotated units may additionally declare (state, message) pairs that
// can never occur, with the argument why:
//
//	//spandex:unreachable <M1,M2> at=<S1|S2> <justification>
//
// Unreachable declarations serve two consumers. DiffCoverage splits the
// never-observed static pairs into "proven unreachable" (declared, with
// the recorded argument) and "untested" (a real coverage hole), and fails
// if a declared-unreachable pair is ever observed — a contradiction means
// the proof or the protocol is wrong. The msgflow whole-system checker
// (internal/analysis/msgflow) uses them as the authorized exceptions to
// its completeness rule: every message a peer can emit must be handled at
// every receiver state, or the pair must be declared unreachable here.
package transgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"spandex/internal/analysis"
)

// maxCallDepth bounds how many levels of same-package calls the automatic
// extractor follows from a HandleMessage case body.
const maxCallDepth = 4

// Transition is one edge set of a unit's graph: for every state in From,
// receiving Msg may move the controller to any state in To (empty To =
// unchanged) while sending the message types in Emits.
type Transition struct {
	Msg   string   `json:"msg"`
	From  []string `json:"from"`
	To    []string `json:"to,omitempty"`
	Emits []string `json:"emits,omitempty"`
	// Origin is "annotation" or "extracted".
	Origin string `json:"origin"`
	// Pos is the file:line the transition was extracted from.
	Pos string `json:"pos"`
}

// Unreachable is one //spandex:unreachable declaration: the (state, msg)
// pairs At×Msgs are proven never to occur, for the recorded reason.
type Unreachable struct {
	Msgs []string `json:"msgs"`
	At   []string `json:"at"`
	Why  string   `json:"why"`
	// Pos is the file:line the declaration was parsed from.
	Pos string `json:"pos"`
}

// Pairs expands the declaration into its "State|Msg" pair set.
func (u *Unreachable) Pairs() []string {
	out := make([]string, 0, len(u.At)*len(u.Msgs))
	for _, at := range u.At {
		for _, m := range u.Msgs {
			out = append(out, at+"|"+m)
		}
	}
	return out
}

// UnitGraph is the transition relation of one message-handling unit.
type UnitGraph struct {
	// Package is the import path, Unit the handler's receiver type name.
	Package string `json:"package"`
	Unit    string `json:"unit"`
	// Source is "annotations" when the unit declares its relation with
	// //spandex:transition directives, else "extracted".
	Source string `json:"source"`
	// States and Messages are the vocabularies appearing in Transitions
	// ("*" excluded).
	States      []string     `json:"states"`
	Messages    []string     `json:"messages"`
	Transitions []Transition `json:"transitions"`
	// Unreachable holds the unit's //spandex:unreachable declarations.
	Unreachable []Unreachable `json:"unreachable,omitempty"`
}

// UnreachablePairs collects every declared-unreachable "State|Msg" pair.
func (g *UnitGraph) UnreachablePairs() map[string]*Unreachable {
	out := make(map[string]*Unreachable)
	for i := range g.Unreachable {
		u := &g.Unreachable[i]
		for _, p := range u.Pairs() {
			out[p] = u
		}
	}
	return out
}

// Name is the unit's canonical file basename: "<pkg>-<unit>", lowercased
// (core-llc, mesi-l1, ...).
func (g *UnitGraph) Name() string {
	base := g.Package
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return strings.ToLower(base + "-" + g.Unit)
}

// Extract builds the transition graph of every HandleMessage unit in pkg,
// sorted by unit name.
func Extract(pkg *analysis.Package) ([]*UnitGraph, error) {
	x := &extractor{pkg: pkg, funcs: indexFuncs(pkg)}
	x.delayq = x.indexDelayHandlers()
	ann, unre, err := annotations(pkg)
	if err != nil {
		return nil, err
	}
	var graphs []*UnitGraph
	for _, unit := range x.units() {
		g := &UnitGraph{Package: pkg.Path, Unit: unit.name}
		if list := ann[unit.name]; len(list) > 0 {
			g.Source = "annotations"
			g.Transitions = list
		} else {
			g.Source = "extracted"
			g.Transitions = x.extractUnit(unit)
		}
		if len(g.Transitions) == 0 {
			continue // stateless pass-through (e.g. PassTU): nothing to graph
		}
		if list := unre[unit.name]; len(list) > 0 {
			if g.Source != "annotations" {
				return nil, fmt.Errorf("%s: unit %s declares //spandex:unreachable but has no //spandex:transition annotations; unreachability claims are only checkable against a precise graph", pkg.Path, unit.name)
			}
			g.Unreachable = list
		}
		finish(g)
		graphs = append(graphs, g)
	}
	sort.Slice(graphs, func(i, j int) bool { return graphs[i].Unit < graphs[j].Unit })
	return graphs, nil
}

// finish sorts transitions and derives the state/message vocabularies.
func finish(g *UnitGraph) {
	states, msgs := map[string]bool{}, map[string]bool{}
	for _, t := range g.Transitions {
		msgs[t.Msg] = true
		for _, s := range t.From {
			states[s] = true
		}
		for _, s := range t.To {
			states[s] = true
		}
	}
	delete(states, "*")
	g.States = sortedKeys(states)
	g.Messages = sortedKeys(msgs)
	sort.Slice(g.Transitions, func(i, j int) bool {
		a, b := g.Transitions[i], g.Transitions[j]
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		return strings.Join(a.From, "|") < strings.Join(b.From, "|")
	})
	sort.Slice(g.Unreachable, func(i, j int) bool {
		a, b := g.Unreachable[i], g.Unreachable[j]
		if am, bm := strings.Join(a.Msgs, ","), strings.Join(b.Msgs, ","); am != bm {
			return am < bm
		}
		return strings.Join(a.At, "|") < strings.Join(b.At, "|")
	})
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// unit is one HandleMessage-bearing type. send is the unit's optional
// second message face: a Send(*proto.Message) method (the noc.Port side a
// translation unit exposes to its bound L1) whose transitions merge into
// the same graph — the two faces dispatch disjoint message vocabularies.
type unit struct {
	name string
	decl *ast.FuncDecl
	send *ast.FuncDecl
}

type extractor struct {
	pkg   *analysis.Package
	funcs map[types.Object]*ast.FuncDecl
	// delayq maps a noc.DelayQueue struct field to the handler methods its
	// NewDelayQueue registration installs (a method value, or every
	// same-package call inside a closure handler), so call-following can
	// step through the Post-then-callback indirection the hot-path engine
	// uses in place of direct dispatch calls.
	delayq map[types.Object][]*ast.FuncDecl
}

// indexFuncs maps every package-level func/method object to its decl, for
// call following.
func indexFuncs(pkg *analysis.Package) map[types.Object]*ast.FuncDecl {
	idx := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					idx[obj] = fd
				}
			}
		}
	}
	return idx
}

// units finds every type with a HandleMessage(*proto.Message) method, in
// source order, pairing each with its Send(*proto.Message) port face when
// one exists.
func (x *extractor) units() []unit {
	var out []unit
	sends := map[string]*ast.FuncDecl{}
	for _, f := range x.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fd.Type.Params.NumFields() != 1 || !x.isProtoMessagePtr(fd.Type.Params.List[0].Type) {
				continue
			}
			switch fd.Name.Name {
			case "HandleMessage":
				out = append(out, unit{name: analysis.RecvName(fd), decl: fd})
			case "Send":
				sends[analysis.RecvName(fd)] = fd
			}
		}
	}
	for i := range out {
		out[i].send = sends[out[i].name]
	}
	return out
}

func (x *extractor) isProtoMessagePtr(e ast.Expr) bool {
	tv, ok := x.pkg.Info.Types[e]
	return ok && tv.Type.String() == "*spandex/internal/proto.Message"
}

// --- automatic extraction ---

// facts accumulates what one case body (plus followed calls) reveals.
type facts struct {
	from, to, emits map[string]bool
}

func newFacts() *facts {
	return &facts{from: map[string]bool{}, to: map[string]bool{}, emits: map[string]bool{}}
}

// extractUnit finds the unit's primary m.Type switch — in HandleMessage
// itself or behind the Schedule-closure-calls-dispatch idiom — and walks
// each case. Cases with empty bodies fall through to the statements after
// the switch (the queue-or-process dispatcher idiom), which are analyzed
// in their place.
func (x *extractor) extractUnit(u unit) []Transition {
	out := x.extractFace(u.decl)
	if u.send != nil {
		// The Send port face dispatches a disjoint message vocabulary
		// (e.g. a translation unit's MESI side), so the merge is a plain
		// concatenation; finish() sorts.
		out = append(out, x.extractFace(u.send)...)
	}
	return out
}

// extractFace extracts the transitions behind one entry method.
func (x *extractor) extractFace(fd *ast.FuncDecl) []Transition {
	sw, cont := x.findMsgSwitch(fd, map[types.Object]bool{}, maxCallDepth)
	if sw == nil {
		return nil // stateless pass-through unit
	}
	var out []Transition
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			continue // default: reject/panic arm, not a transition
		}
		var msgs []string
		for _, e := range cc.List {
			if name, ok := x.msgConst(e); ok {
				msgs = append(msgs, name)
			}
		}
		body := cc.Body
		if len(body) == 0 {
			body = cont
		}
		f := newFacts()
		msgSet := map[string]bool{}
		for _, m := range msgs {
			msgSet[m] = true
		}
		seen := map[types.Object]bool{}
		for _, s := range body {
			x.collect(s, f, msgSet, seen, maxCallDepth)
		}
		for _, msg := range msgs {
			out = append(out, Transition{
				Msg:    msg,
				From:   orStar(sortedKeys(f.from)),
				To:     sortedKeys(f.to),
				Emits:  sortedKeys(f.emits),
				Origin: "extracted",
				Pos:    x.pkg.ShortPos(cc.Pos()),
			})
		}
	}
	return out
}

// findMsgSwitch locates the first switch over a proto.MsgType expression
// reachable from fd, following same-package calls (including inside
// closures) to bounded depth. It returns the switch plus the statements
// that follow it in its enclosing block — the fall-through continuation.
func (x *extractor) findMsgSwitch(fd *ast.FuncDecl, seen map[types.Object]bool, depth int) (*ast.SwitchStmt, []ast.Stmt) {
	if fd.Body == nil {
		return nil, nil
	}
	var sw *ast.SwitchStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sw != nil {
			return false
		}
		if s, ok := n.(*ast.SwitchStmt); ok && s.Tag != nil && x.isMsgType(s.Tag) {
			sw = s
			return false
		}
		return true
	})
	if sw != nil {
		var cont []ast.Stmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if blk, ok := n.(*ast.BlockStmt); ok {
				for i, s := range blk.List {
					if s == ast.Stmt(sw) {
						cont = blk.List[i+1:]
						return false
					}
				}
			}
			return true
		})
		return sw, cont
	}
	if depth == 0 {
		return nil, nil
	}
	var calls []*ast.FuncDecl
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callees := x.postHandlers(call)
			if callee := x.calleeDecl(call); callee != nil {
				callees = append(callees, callee)
			}
			for _, callee := range callees {
				obj := x.pkg.Info.Defs[callee.Name]
				if !seen[obj] {
					seen[obj] = true
					calls = append(calls, callee)
				}
			}
		}
		return true
	})
	for _, callee := range calls {
		if s, cont := x.findMsgSwitch(callee, seen, depth-1); s != nil {
			return s, cont
		}
	}
	return nil, nil
}

func orStar(states []string) []string {
	if len(states) == 0 {
		return []string{"*"}
	}
	return states
}

func (x *extractor) isMsgType(e ast.Expr) bool {
	tv, ok := x.pkg.Info.Types[e]
	return ok && tv.Type.String() == "spandex/internal/proto.MsgType"
}

// msgConst reports the constant name when e is a proto.MsgType enumerator.
func (x *extractor) msgConst(e ast.Expr) (string, bool) {
	obj := x.constObj(e)
	if obj == nil || obj.Type().String() != "spandex/internal/proto.MsgType" {
		return "", false
	}
	return obj.Name(), true
}

// stateConst reports the constant name when e is an enumerator of a state
// enum: a defined integer type whose name contains "state" and whose
// package-level constants form a zero-based enum (analysis.EnumOf).
func (x *extractor) stateConst(e ast.Expr) (string, bool) {
	obj := x.constObj(e)
	if obj == nil {
		return "", false
	}
	named, ok := obj.Type().(*types.Named)
	if !ok || !strings.Contains(strings.ToLower(named.Obj().Name()), "state") {
		return "", false
	}
	if analysis.EnumOf(named) == nil {
		return "", false
	}
	return obj.Name(), true
}

// constObj resolves an ident or selector expression to a constant object.
func (x *extractor) constObj(e ast.Expr) *types.Const {
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	c, _ := x.pkg.Info.Uses[id].(*types.Const)
	return c
}

// collect gathers facts from one statement tree, following same-package
// calls up to depth levels (each callee visited once per case). msgSet
// names the incoming message(s) under analysis: nested switches over
// proto.MsgType (downstream dispatchers) are filtered to the matching
// cases, so one message's facts are not polluted by its siblings'.
func (x *extractor) collect(n ast.Node, f *facts, msgSet map[string]bool, seen map[types.Object]bool, depth int) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BinaryExpr:
			if v.Op == token.EQL || v.Op == token.NEQ {
				for _, side := range [2]ast.Expr{v.X, v.Y} {
					if s, ok := x.stateConst(side); ok {
						f.from[s] = true
					}
				}
			}
		case *ast.SwitchStmt:
			if v.Tag != nil && x.isMsgType(v.Tag) {
				for _, stmt := range v.Body.List {
					cc := stmt.(*ast.CaseClause)
					match := cc.List == nil // default arm applies to any message
					for _, e := range cc.List {
						if name, ok := x.msgConst(e); ok && msgSet[name] {
							match = true
						}
					}
					if match {
						for _, s := range cc.Body {
							x.collect(s, f, msgSet, seen, depth)
						}
					}
				}
				return false
			}
			// A switch over a state-typed expression contributes its case
			// constants as from-states.
			for _, stmt := range v.Body.List {
				for _, e := range stmt.(*ast.CaseClause).List {
					if s, ok := x.stateConst(e); ok {
						f.from[s] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range v.Rhs {
				if s, ok := x.stateConst(rhs); ok {
					f.to[s] = true
				}
			}
		case *ast.CompositeLit:
			if tv, ok := x.pkg.Info.Types[v]; ok && tv.Type.String() == "spandex/internal/proto.Message" {
				for _, el := range v.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Type" {
						if m, ok := x.msgConst(kv.Value); ok {
							f.emits[m] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			for _, arg := range v.Args {
				if m, ok := x.msgConst(arg); ok {
					f.emits[m] = true
				}
				if s, ok := x.stateConst(arg); ok {
					// The handleData(m, S) idiom: a state constant handed to
					// a helper is (almost always) the state being granted.
					f.to[s] = true
				}
			}
			if depth > 0 {
				callees := x.postHandlers(v)
				if callee := x.calleeDecl(v); callee != nil {
					callees = append(callees, callee)
				}
				for _, callee := range callees {
					obj := x.pkg.Info.Defs[callee.Name]
					if !seen[obj] {
						seen[obj] = true
						if callee.Body != nil {
							x.collect(callee.Body, f, msgSet, seen, depth-1)
						}
					}
				}
			}
		}
		return true
	})
}

// indexDelayHandlers finds every `x.field = noc.NewDelayQueue(eng, d,
// handler)` registration in the package and maps the queue field to the
// handler declarations: the method itself for a method-value handler, or
// every same-package callee for a closure handler.
func (x *extractor) indexDelayHandlers() map[types.Object][]*ast.FuncDecl {
	out := make(map[types.Object][]*ast.FuncDecl)
	for _, f := range x.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhs, ok := as.Lhs[0].(*ast.SelectorExpr)
			if !ok {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || fn.Sel.Name != "NewDelayQueue" {
				return true
			}
			field := x.pkg.Info.Uses[lhs.Sel]
			if field == nil {
				return true
			}
			switch handler := call.Args[len(call.Args)-1].(type) {
			case *ast.SelectorExpr:
				if hobj := x.pkg.Info.Uses[handler.Sel]; hobj != nil {
					if decl := x.funcs[hobj]; decl != nil {
						out[field] = append(out[field], decl)
					}
				}
			case *ast.FuncLit:
				ast.Inspect(handler.Body, func(n ast.Node) bool {
					if c, ok := n.(*ast.CallExpr); ok {
						if decl := x.calleeDecl(c); decl != nil {
							out[field] = append(out[field], decl)
						}
					}
					return true
				})
			}
			return true
		})
	}
	return out
}

// postHandlers resolves a `x.field.Post(m)` call to the handlers
// registered on the field's DelayQueue (nil if the call is anything else).
func (x *extractor) postHandlers(call *ast.CallExpr) []*ast.FuncDecl {
	fn, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || fn.Sel.Name != "Post" {
		return nil
	}
	field, ok := fn.X.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj := x.pkg.Info.Uses[field.Sel]
	if obj == nil {
		return nil
	}
	return x.delayq[obj]
}

// calleeDecl resolves a call to a same-package func/method declaration.
func (x *extractor) calleeDecl(call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	obj := x.pkg.Info.Uses[id]
	if obj == nil {
		return nil
	}
	return x.funcs[obj]
}

// --- annotations ---

// annotations reads the package's //spandex:transition and
// //spandex:unreachable directives, keyed by the receiver type of the
// method each sits in. A malformed directive anywhere in the package
// aborts the extraction with the error annref reports for it.
func annotations(pkg *analysis.Package) (map[string][]Transition, map[string][]Unreachable, error) {
	if err := pkg.DirectiveErr(); err != nil {
		return nil, nil, err
	}
	trans := make(map[string][]Transition)
	unre := make(map[string][]Unreachable)
	for _, d := range pkg.Directives() {
		switch d.Kind {
		case "transition":
			trans[d.Recv] = append(trans[d.Recv], Transition{
				Msg: d.Operand[0], From: sorted(d.Fields["from"]), To: sorted(d.Fields["to"]),
				Emits: sorted(d.Fields["emits"]), Origin: "annotation", Pos: pkg.ShortPos(d.Pos),
			})
		case "unreachable":
			unre[d.Recv] = append(unre[d.Recv], Unreachable{
				Msgs: sorted(d.Operand), At: sorted(d.Fields["at"]), Why: d.Why, Pos: pkg.ShortPos(d.Pos),
			})
		}
	}
	return trans, unre, nil
}

// sorted returns a sorted copy of a directive list (nil stays nil).
func sorted(list []string) []string { return slices.Sorted(slices.Values(list)) }

// --- serialization ---

// JSON renders the graph canonically (stable field and slice order, two-
// space indent, trailing newline) — the checked-in docs/transitions format
// whose freshness CI enforces byte-for-byte.
func (g *UnitGraph) JSON() []byte {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		panic("transgraph: marshal: " + err.Error())
	}
	return append(data, '\n')
}

// DOT renders the graph for graphviz. Transitions with an empty To draw
// self-loops (state unchanged); "*" is a node meaning "any state".
func (g *UnitGraph) DOT() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Generated by spandex-graph from %s; do not edit.\n", g.Package)
	fmt.Fprintf(&b, "digraph %q {\n", g.Name())
	b.WriteString("  rankdir=LR;\n  node [shape=ellipse, fontname=\"Helvetica\"];\n  edge [fontname=\"Helvetica\", fontsize=10];\n")
	for _, t := range g.Transitions {
		label := t.Msg
		if len(t.Emits) > 0 {
			label += " / " + strings.Join(t.Emits, ",")
		}
		for _, from := range t.From {
			tos := t.To
			if len(tos) == 0 {
				tos = []string{from}
			}
			for _, to := range tos {
				fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", from, to, label)
			}
		}
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// --- coverage cross-check ---

// DiffResult reports the static-vs-dynamic comparison for one unit.
type DiffResult struct {
	// Unknown are observed "State|Msg" pairs absent from the static graph:
	// extraction (or annotation) bugs, and a CI failure.
	Unknown []string
	// Contradicted are observed pairs the unit declares unreachable: the
	// unreachability proof (or the protocol) is wrong, and a CI failure.
	Contradicted []string
	// Gaps are static (state, msg) pairs never observed and not declared
	// unreachable: genuine test-coverage holes, reported but not fatal.
	Gaps []string
	// Proven are static pairs never observed but covered by a
	// //spandex:unreachable declaration, with the declared argument.
	Proven map[string]string
	// Observed and Static count the distinct pairs on each side.
	Observed, Static int
}

// DiffCoverage compares dynamically observed coverage (Snapshot format,
// "State|Msg" → count) against the unit's static graph. A transition with
// from "*" matches the message in any state.
func DiffCoverage(g *UnitGraph, observed map[string]uint64) DiffResult {
	static := make(map[string]bool)
	anyState := make(map[string]bool)
	for _, t := range g.Transitions {
		for _, from := range t.From {
			if from == "*" {
				anyState[t.Msg] = true
				continue
			}
			static[from+"|"+t.Msg] = true
		}
	}
	res := DiffResult{Observed: len(observed), Static: len(static)}
	unre := g.UnreachablePairs()
	seen := make(map[string]bool)
	for key := range observed {
		state, msg, ok := strings.Cut(key, "|")
		_ = state
		if !ok {
			res.Unknown = append(res.Unknown, key)
			continue
		}
		if unre[key] != nil {
			res.Contradicted = append(res.Contradicted, key)
		}
		if static[key] {
			seen[key] = true
			continue
		}
		if anyState[msg] {
			continue
		}
		res.Unknown = append(res.Unknown, key)
	}
	for key := range static {
		if seen[key] {
			continue
		}
		if u := unre[key]; u != nil {
			if res.Proven == nil {
				res.Proven = make(map[string]string)
			}
			res.Proven[key] = u.Why
			continue
		}
		res.Gaps = append(res.Gaps, key)
	}
	sort.Strings(res.Unknown)
	sort.Strings(res.Contradicted)
	sort.Strings(res.Gaps)
	return res
}
