package msgflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"spandex/internal/analysis"
)

// emitSite is one classified proto.Message construction: the unit that
// owns the enclosing method may send any of msgs to the destination role.
// reqSelf records whether the message names the emitting unit as its
// Requestor (the literal's Requestor field is absent or anything other
// than a preserved m.Requestor) — the marker of an originated request, as
// opposed to a forward.
type emitSite struct {
	msgs    []string
	role    string
	reqSelf bool
	pos     string
}

// maxResolveDepth bounds how far resolveMsgExpr chases variables and
// parameters across call sites.
const maxResolveDepth = 4

// collectEmitSites walks every method of every unit type in pkg, finds
// proto.Message composite literals, resolves their Type field to message
// names and their Dst field (or sending wrapper) to a destination role.
// names maps receiver type name → canonical unit name; literals in other
// receivers (helpers of non-unit types) are ignored.
func collectEmitSites(pkg *analysis.Package, names map[string]string, out map[string][]emitSite) error {
	c := &emitCollector{pkg: pkg}
	c.indexFuncs()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			unit, ok := names[analysis.RecvName(fd)]
			if !ok {
				continue
			}
			var err error
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if err != nil {
					return false
				}
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !c.isProtoMessage(lit) {
					return true
				}
				site, serr := c.classify(fd, lit)
				if serr != nil {
					err = serr
					return false
				}
				out[unit] = append(out[unit], *site)
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

type emitCollector struct {
	pkg   *analysis.Package
	funcs map[string]*ast.FuncDecl // "Recv.Name" or "Name" → decl
}

func (c *emitCollector) indexFuncs() {
	c.funcs = map[string]*ast.FuncDecl{}
	for _, f := range c.pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				c.funcs[funcKey(fd)] = fd
			}
		}
	}
}

func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return analysis.RecvName(fd) + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func (c *emitCollector) isProtoMessage(lit *ast.CompositeLit) bool {
	tv, ok := c.pkg.Info.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Message" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/proto")
}

// classify resolves one literal to an emitSite.
func (c *emitCollector) classify(fd *ast.FuncDecl, lit *ast.CompositeLit) (*emitSite, error) {
	var typeExpr, dstExpr, reqExpr ast.Expr
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return nil, fmt.Errorf("msgflow: %s: proto.Message literal with positional fields", c.pkg.ShortPos(lit.Pos()))
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Type":
			typeExpr = kv.Value
		case "Dst":
			dstExpr = kv.Value
		case "Requestor":
			reqExpr = kv.Value
		}
	}
	if typeExpr == nil {
		return nil, fmt.Errorf("msgflow: %s: proto.Message literal without Type", c.pkg.ShortPos(lit.Pos()))
	}
	msgs := map[string]bool{}
	c.resolveMsgExpr(typeExpr, fd, maxResolveDepth, msgs)
	if len(msgs) == 0 {
		return nil, fmt.Errorf("msgflow: %s: cannot resolve message Type statically", c.pkg.ShortPos(lit.Pos()))
	}
	role, err := c.dstRole(fd, lit, dstExpr)
	if err != nil {
		return nil, err
	}
	site := &emitSite{msgs: sortedSet(msgs), role: role, reqSelf: true, pos: c.pkg.ShortPos(lit.Pos())}
	// Requestor: m.Requestor (preserved from the handled message) marks a
	// forward; everything else — including omission — originates.
	if sel, ok := reqExpr.(*ast.SelectorExpr); ok && sel.Sel.Name == "Requestor" {
		site.reqSelf = false
	}
	return site, nil
}

// resolveMsgExpr accumulates the proto.MsgType constant names e can take:
// a constant directly, a variable via the constants assigned to it in the
// enclosing function, or a parameter via the arguments passed at every
// same-package call site.
func (c *emitCollector) resolveMsgExpr(e ast.Expr, fd *ast.FuncDecl, depth int, out map[string]bool) {
	if name, ok := c.msgConst(e); ok {
		out[name] = true
		return
	}
	if depth == 0 {
		return
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	obj := c.pkg.Info.Uses[id]
	if obj == nil {
		obj = c.pkg.Info.Defs[id]
	}
	if obj == nil {
		return
	}
	// Constants assigned to the variable anywhere in the function.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range asg.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || i >= len(asg.Rhs) {
				continue
			}
			lobj := c.pkg.Info.Uses[lid]
			if lobj == nil {
				lobj = c.pkg.Info.Defs[lid]
			}
			if lobj == obj {
				c.resolveMsgExpr(asg.Rhs[i], fd, depth-1, out)
			}
		}
		return true
	})
	// A parameter: chase every same-package call site's argument.
	if idx := paramIndex(fd, obj); idx >= 0 {
		key := funcKey(fd)
		for _, f := range c.pkg.Files {
			for _, d := range f.Decls {
				caller, ok := d.(*ast.FuncDecl)
				if !ok || caller.Body == nil {
					continue
				}
				ast.Inspect(caller.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || idx >= len(call.Args) {
						return true
					}
					if callee := c.calleeKey(call); callee == key {
						c.resolveMsgExpr(call.Args[idx], caller, depth-1, out)
					}
					return true
				})
			}
		}
	}
}

func paramIndex(fd *ast.FuncDecl, obj types.Object) int {
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == obj.Name() && name.Pos() == obj.Pos() {
				return idx
			}
			idx++
		}
	}
	return -1
}

// calleeKey resolves a call expression to the funcKey of a same-package
// function or method, or "".
func (c *emitCollector) calleeKey(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := c.pkg.Info.Uses[fun]; obj != nil {
			if _, ok := c.funcs[obj.Name()]; ok {
				return obj.Name()
			}
		}
	case *ast.SelectorExpr:
		// method call x.f(...): receiver type name from x's type
		tv, ok := c.pkg.Info.Types[fun.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fun.Sel.Name
		}
	}
	return ""
}

func (c *emitCollector) msgConst(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := c.pkg.Info.Uses[sel.Sel]
	cst, ok := obj.(*types.Const)
	if !ok {
		return "", false
	}
	named, ok := cst.Type().(*types.Named)
	if !ok || named.Obj().Name() != "MsgType" {
		return "", false
	}
	return cst.Name(), true
}

// dstRole classifies the destination of one literal. With no Dst field
// the enclosing sending wrapper decides: sendLLC*/sendNet-to-llc helpers
// imply the parent, l1V injects into the bound MESI L1.
func (c *emitCollector) dstRole(fd *ast.FuncDecl, lit *ast.CompositeLit, dst ast.Expr) (string, error) {
	if dst == nil {
		if wrap := c.enclosingCallName(fd, lit); wrap != "" {
			switch {
			case strings.HasPrefix(wrap, "sendLLC"):
				return RoleParent, nil
			case wrap == "l1V" || wrap == "toL1":
				return RoleL1, nil
			}
		}
		return "", fmt.Errorf("msgflow: %s: proto.Message literal without Dst outside a recognized sending wrapper", c.pkg.ShortPos(lit.Pos()))
	}
	switch d := dst.(type) {
	case *ast.SelectorExpr:
		switch d.Sel.Name {
		case "Requestor":
			return RoleRequestor, nil
		case "Src":
			return RoleSender, nil
		case "ParentID", "llcID", "parentID":
			return RoleParent, nil
		case "MemID":
			return RoleMem, nil
		}
	case *ast.IndexExpr:
		if sel, ok := d.X.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "devices", "children", "l1s", "sharers":
				return RoleChild, nil
			}
		}
	case *ast.CallExpr:
		// Bank-homing helpers: the line's home bank is still the unit's
		// parent, just one of several interleaved instances of it.
		if sel, ok := d.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "parent", "HomeOf", "llcFor":
				return RoleParent, nil
			}
		}
	}
	return "", fmt.Errorf("msgflow: %s: unclassifiable Dst expression", c.pkg.ShortPos(lit.Pos()))
}

// enclosingCallName returns the callee name of the innermost call the
// literal is a direct argument of, or "".
func (c *emitCollector) enclosingCallName(fd *ast.FuncDecl, lit *ast.CompositeLit) string {
	var name string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if arg == ast.Expr(lit) {
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				}
				return false
			}
		}
		return true
	})
	return name
}
