package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerMaporder guards DESIGN.md Sec. 8 invariant 4 (deterministic
// output order): a `range` over a map whose body feeds an ordered sink
// — appending to a slice declared outside the loop, sending on a
// channel, or returning a value derived from the iteration variables —
// leaks Go's randomized map order into results. Appends are excused
// when the enclosing function later passes the slice to sort or slices,
// the collect-then-sort idiom every emit path here uses.
var AnalyzerMaporder = &Analyzer{
	Name: "maporder",
	Doc: "range over a map feeding an append/send/return path without a " +
		"subsequent sort makes output order depend on map iteration " +
		"(guards invariant 4: deterministic family order, conflict.CompareCouples, " +
		"and golden tables)",
	Run: runMaporder,
}

func runMaporder(p *Pass) {
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !p.rangesOverMap(rs) {
				return true
			}
			p.checkMapRange(rs, stack)
			return true
		})
	}
}

// rangesOverMap reports whether rs iterates a map directly or through
// the maps.Keys/Values/All iterators (whose order is equally random).
func (p *Pass) rangesOverMap(rs *ast.RangeStmt) bool {
	if t := p.TypeOf(rs.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return true
		}
	}
	call, ok := rs.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := p.calleeFunc(call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "maps" &&
		(fn.Name() == "Keys" || fn.Name() == "Values" || fn.Name() == "All")
}

// calleeFunc resolves a call's callee to a package-level *types.Func.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}

func (p *Pass) checkMapRange(rs *ast.RangeStmt, stack []ast.Node) {
	iterObjs := p.rangeVarObjects(rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "send inside map iteration publishes values in map order; collect and sort first")
		case *ast.ReturnStmt:
			if p.usesAny(n, iterObjs) {
				p.Reportf(n.Pos(), "return of a map iteration variable picks an arbitrary entry; iterate sorted keys")
			}
		case *ast.AssignStmt:
			p.checkAppendInMapRange(n, rs, stack)
		}
		return true
	})
}

// rangeVarObjects collects the objects bound to the range's key/value.
func (p *Pass) rangeVarObjects(rs *ast.RangeStmt) map[types.Object]bool {
	objs := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := p.ObjectOf(id); o != nil {
				objs[o] = true
			}
		}
	}
	return objs
}

func (p *Pass) usesAny(n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && objs[p.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// checkAppendInMapRange flags `x = append(x, ...)` where x is declared
// outside the range statement and is not sorted afterwards within the
// enclosing function.
func (p *Pass) checkAppendInMapRange(as *ast.AssignStmt, rs *ast.RangeStmt, stack []ast.Node) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !p.isBuiltinAppend(call) || i >= len(as.Lhs) {
			continue
		}
		target := appendTarget(as.Lhs[i])
		if target == nil {
			// Appending through a selector (s.field = append(...)): the
			// slice outlives the loop and cannot be proven sorted here.
			p.Reportf(as.Pos(), "append to %s inside map iteration records entries in map order; sort before emitting", types.ExprString(as.Lhs[i]))
			continue
		}
		obj := p.ObjectOf(target)
		if obj == nil || withinNode(rs, obj.Pos()) {
			continue // loop-local scratch; order cannot escape
		}
		if p.sortedAfter(obj, rs, stack) {
			continue
		}
		p.Reportf(as.Pos(), "append to %q inside map iteration records entries in map order; sort %q afterwards or iterate sorted keys", target.Name, target.Name)
	}
}

func (p *Pass) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget returns the plain identifier being assigned, or nil for
// selector/index targets.
func appendTarget(lhs ast.Expr) *ast.Ident {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return id
}

func withinNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// sortedAfter reports whether, in the innermost enclosing function, the
// slice object is passed to a sort/slices function at a position after
// the range statement.
func (p *Pass) sortedAfter(obj types.Object, rs *ast.RangeStmt, stack []ast.Node) bool {
	var fnBody *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			fnBody = fn.Body
		case *ast.FuncLit:
			fnBody = fn.Body
		}
		if fnBody != nil {
			break
		}
	}
	if fnBody == nil {
		return false
	}
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := p.calleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if p.refersTo(arg, obj) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func (p *Pass) refersTo(e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && p.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
