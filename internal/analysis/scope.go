package analysis

import (
	"go/ast"
	"go/types"
	"maps"
)

// ScopeWalker walks function bodies lexically for the ownership analyzers
// (mutafter, poolret), threading the set of handed-off variables (object
// → the call that took them) through each statement sequence. A handoff
// recorded inside a branch or loop body does not leak past it, and
// rebinding a variable (a plain identifier on the left of an assignment)
// ends its tracking. Each analyzer supplies what counts as a violation
// (Check) and what counts as a handoff (Handoff).
type ScopeWalker struct {
	Info *types.Info
	// Check reports violations in one simple statement or one control
	// expression (an if or for condition, a switch tag, a range operand).
	Check func(n ast.Node, tracked map[types.Object]string)
	// Handoff records the variables one call takes over. Calls inside a
	// func literal are not offered: they run when the literal is called.
	Handoff func(call *ast.CallExpr, tracked map[types.Object]string)
}

// Funcs walks every function declaration and literal body in files, each
// from an empty set.
func (w *ScopeWalker) Funcs(files []*ast.File) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w.List(n.Body.List, map[types.Object]string{})
				}
			case *ast.FuncLit:
				w.List(n.Body.List, map[types.Object]string{})
			}
			return true
		})
	}
}

// List walks one statement sequence.
func (w *ScopeWalker) List(stmts []ast.Stmt, tracked map[types.Object]string) {
	for _, s := range stmts {
		w.stmt(s, tracked)
	}
}

func (w *ScopeWalker) stmt(s ast.Stmt, tracked map[types.Object]string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.List(s.List, maps.Clone(tracked))
	case *ast.IfStmt:
		inner := maps.Clone(tracked)
		w.optional(s.Init, inner)
		w.Check(s.Cond, inner)
		w.List(s.Body.List, maps.Clone(inner))
		if s.Else != nil {
			w.stmt(s.Else, maps.Clone(inner))
		}
	case *ast.ForStmt:
		inner := maps.Clone(tracked)
		w.optional(s.Init, inner)
		if s.Cond != nil {
			w.Check(s.Cond, inner)
		}
		w.optional(s.Post, inner)
		w.List(s.Body.List, maps.Clone(inner))
	case *ast.RangeStmt:
		inner := maps.Clone(tracked)
		w.Check(s.X, inner)
		w.List(s.Body.List, inner)
	case *ast.SwitchStmt:
		inner := maps.Clone(tracked)
		w.optional(s.Init, inner)
		if s.Tag != nil {
			w.Check(s.Tag, inner)
		}
		for _, c := range s.Body.List {
			w.List(c.(*ast.CaseClause).Body, maps.Clone(inner))
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.List(c.(*ast.CaseClause).Body, maps.Clone(tracked))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.List(c.(*ast.CommClause).Body, maps.Clone(tracked))
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, tracked)
	default:
		w.Check(s, tracked)
		for _, id := range Rebound(s) {
			delete(tracked, w.Info.ObjectOf(id))
		}
		ast.Inspect(s, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				w.Handoff(call, tracked)
			}
			return true
		})
	}
}

// optional walks an init or post statement, if there is one.
func (w *ScopeWalker) optional(s ast.Stmt, tracked map[types.Object]string) {
	if s != nil {
		w.stmt(s, tracked)
	}
}

// Rebound returns the plain identifiers s assigns to: the variables it
// rebinds rather than writes through.
func Rebound(s ast.Node) []*ast.Ident {
	a, ok := s.(*ast.AssignStmt)
	if !ok {
		return nil
	}
	var ids []*ast.Ident
	for _, lhs := range a.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// CalleeName is the name a call invokes: the function or method
// identifier, "" for a call through any other expression.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
