package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerTimenow keeps wall-clock time out of result-producing code:
// golden experiment tables, determinism tests and the byte-identical
// enumeration contract (DESIGN.md Sec. 8 invariant 8)
// all assume outputs depend only on inputs and seeds. CLI mains are
// exempt (abwbench legitimately date-stamps baseline files).
var AnalyzerTimenow = &Analyzer{
	Name: "timenow",
	Doc: "time.Now/Since/Until in a result-producing package makes output " +
		"depend on the wall clock, breaking golden-table and " +
		"determinism gates (package main is exempt)",
	Run: runTimenow,
}

var timenowBanned = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runTimenow(p *Pass) {
	if p.Pkg.Name() == "main" {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !timenowBanned[fn.Name()] {
				return true
			}
			p.Reportf(sel.Pos(), "time.%s reads the wall clock in a result-producing package; thread time through as an input", fn.Name())
			return true
		})
	}
}
