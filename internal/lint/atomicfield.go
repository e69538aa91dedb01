package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// AnalyzerAtomicfield guards the counters concurrent requests bump (the
// memo cache's and its store's sync/atomic fields; obs and server use
// the typed atomics of sync/atomic, which admit no plain access): a
// variable or struct field that is ever passed to sync/atomic must be
// accessed through sync/atomic everywhere in the package — one plain
// read of a counter that requests bump atomically is a data race the
// race detector only catches when the schedule cooperates. Deliberate
// single-owner plain access must carry a //lint:ignore stating why no
// concurrent writer can exist.
var AnalyzerAtomicfield = &Analyzer{
	Name: "atomicfield",
	Doc: "mixed atomic and plain access to the same variable or field; " +
		"every access must go through sync/atomic, or the plain site must " +
		"prove exclusivity in a //lint:ignore (guards the counters " +
		"concurrent requests bump)",
	Run: runAtomicfield,
}

func runAtomicfield(p *Pass) {
	// Pass A: every &x handed to a sync/atomic function marks x's object
	// as atomically accessed; the operand node itself is sanctioned.
	atomicAt := make(map[types.Object]token.Pos)
	sanctioned := make(map[ast.Node]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			for _, arg := range call.Args {
				ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					continue
				}
				operand := ast.Unparen(ue.X)
				if obj := p.addressedObject(operand); obj != nil {
					if _, seen := atomicAt[obj]; !seen {
						atomicAt[obj] = ue.Pos()
					}
					sanctioned[operand] = true
				}
			}
			return true
		})
	}
	if len(atomicAt) == 0 {
		return
	}
	// Pass B: any other use of those objects is a plain access.
	for _, f := range p.Files {
		p.flagPlainUses(f, atomicAt, sanctioned)
	}
}

// addressedObject resolves the operand of &x to the variable or field
// object being addressed.
func (p *Pass) addressedObject(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if v, ok := p.ObjectOf(e.Sel).(*types.Var); ok {
			return v
		}
	case *ast.Ident:
		if v, ok := p.ObjectOf(e).(*types.Var); ok {
			return v
		}
	}
	return nil
}

func (p *Pass) flagPlainUses(root ast.Node, atomicAt map[types.Object]token.Pos, sanctioned map[ast.Node]bool) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if v, ok := p.Info.Uses[n.Sel].(*types.Var); ok {
				if at, tracked := atomicAt[v]; tracked && !sanctioned[n] {
					p.reportPlainUse(n.Pos(), v, at)
				}
				// The Sel identifier is accounted for; only the receiver
				// expression can hold further uses.
				ast.Inspect(n.X, visit)
				return false
			}
		case *ast.Ident:
			if v, ok := p.Info.Uses[n].(*types.Var); ok {
				if at, tracked := atomicAt[v]; tracked && !sanctioned[n] {
					p.reportPlainUse(n.Pos(), v, at)
				}
			}
		}
		return true
	}
	ast.Inspect(root, visit)
}

func (p *Pass) reportPlainUse(pos token.Pos, v *types.Var, atomicPos token.Pos) {
	at := p.Fset.Position(atomicPos)
	p.Reportf(pos, "%q is accessed via sync/atomic at %s:%d; this plain access races with it",
		v.Name(), filepath.Base(at.Filename), at.Line)
}
