// Package mutafter implements the spandex-lint analyzer that enforces the
// message-ownership discipline: once a *Message has been handed to a
// Send-shaped call or captured by an Engine.Schedule closure, the sender
// must not mutate it.
//
// noc.Network.Send copies the message today, which makes post-send
// mutation merely latent rather than immediately wrong — but every direct
// Port/engine path that skips the copy turns the same code into a data
// hazard between the logical send time and the delivery event. The rule is
// therefore enforced at the source: the send owns the message; build a new
// one (or copy) if you need to keep writing.
//
// The analysis is lexical and per-function (analysis.ScopeWalker, shared
// with the poolret analyzer): after a statement that passes
// a variable of type *Message (any struct type named Message, so testdata
// and future message types qualify) to a call whose method name begins
// with Send/send, or captures it in a func literal passed to
// Schedule/ScheduleAt, later statements in the same or enclosing block
// sequence may not assign through that variable. Rebinding the variable
// (m = ...) ends tracking; publication inside a conditional branch does
// not leak past the branch (no false positives from speculative sends).
package mutafter

import (
	"go/ast"
	"go/types"
	"strings"

	"spandex/internal/analysis"
)

// Analyzer is the mutafter analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "mutafter",
	Doc:  "forbid mutating a *Message after it was passed to Send/Schedule",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	tr := &tracker{pass: pass}
	w := &analysis.ScopeWalker{Info: pass.TypesInfo, Check: tr.check, Handoff: tr.publishes}
	w.Funcs(pass.Files)
	return nil
}

type tracker struct {
	pass *analysis.Pass
}

// check reports writes through published message variables: assignment
// and inc/dec targets rooted at one. A plain identifier target rebinds
// the variable instead (the walker ends its tracking). Other statements
// cannot write through a message variable except via calls taking
// &m.Field; not modeled.
func (tr *tracker) check(n ast.Node, pub map[types.Object]string) {
	var targets []ast.Expr
	switch s := n.(type) {
	case *ast.AssignStmt:
		targets = s.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{s.X}
	}
	for _, lhs := range targets {
		if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			continue
		}
		root := rootIdent(lhs)
		if root == nil {
			continue
		}
		if via, ok := pub[tr.pass.TypesInfo.ObjectOf(root)]; ok {
			tr.pass.Reportf(lhs.Pos(), "message %s mutated after being passed to %s: the send owns the message; copy it (or build a new one) before writing", root.Name, via)
		}
	}
}

// publishes records the message variables one call publishes: passed to
// a [Ss]end*-named call, or captured by a func literal handed to
// Schedule/ScheduleAt.
func (tr *tracker) publishes(call *ast.CallExpr, pub map[types.Object]string) {
	name := analysis.CalleeName(call)
	switch {
	case strings.HasPrefix(name, "Send") || strings.HasPrefix(name, "send"):
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := tr.pass.TypesInfo.ObjectOf(id); obj != nil && isMessagePtr(obj.Type()) {
					pub[obj] = name
				}
			}
		}
	case name == "Schedule" || name == "ScheduleAt":
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := tr.pass.TypesInfo.ObjectOf(id); obj != nil && isMessagePtr(obj.Type()) {
						pub[obj] = name + " closure"
					}
				}
				return true
			})
		}
	}
}

// isMessagePtr reports whether t is a pointer to a struct type named
// Message.
func isMessagePtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != "Message" {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// rootIdent peels selectors, indexes, stars and parens down to the base
// identifier of an lvalue, or nil.
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
