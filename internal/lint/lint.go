// Package lint is a stdlib-only static-analysis framework for this
// module: a package loader (go/parser + go/types, no x/tools), a
// diagnostic model with //lint:ignore suppression, and the repo-specific
// analyzers that turn the DESIGN.md Sec. 8 invariants into machine
// checks. The cmd/abwlint driver runs every analyzer over the tree and
// fails CI on findings; each rule documents the invariant it guards.
//
// Since PR 8 the loader can augment every package with its _test.go
// files (Loader.Tests, the abwlint -tests flag): test code is subject to
// the same rules, with Pass.InTestFile letting individual checks relax
// where test-local behavior (context.Background in a test body, say) is
// deliberate. Rules may attach a Fix to a diagnostic; the abwlint
// -fix/-diff driver applies the edits atomically per file with a
// re-parse check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule. Run reports findings through the Pass; the
// framework applies package scoping and suppression afterwards.
type Analyzer struct {
	// Name is the rule's short name; diagnostics carry "abw/<Name>".
	Name string
	// Doc is a one-paragraph description shown by `abwlint -list`.
	Doc string
	// Packages restricts the rule to packages whose import path matches
	// one of the patterns (see matchPkg). Empty means every package.
	Packages []string
	// Run inspects one package and reports findings.
	Run func(*Pass)
}

// ID returns the namespaced rule identifier, e.g. "abw/floateq".
func (a *Analyzer) ID() string { return "abw/" + a.Name }

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// FileOf returns the file containing pos, or nil.
func (p *Pass) FileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.Info.TypeOf(e); t != nil {
		return t
	}
	return nil
}

// ObjectOf resolves an identifier to its object (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Info.ObjectOf(id)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportFix(pos, nil, format, args...)
}

// ReportFix records a finding at pos carrying a suggested fix (nil for
// none); `abwlint -fix` applies the fix's edits.
func (p *Pass) ReportFix(pos token.Pos, fix *Fix, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.analyzer.ID(),
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	})
}

// Diagnostic is one finding. The JSON field names are a stable contract
// for downstream tooling; diagnostics are always emitted sorted by
// file, line, column, rule, message. Fix, when present, is a suggested
// rewrite confined to the diagnostic's file.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	Fix     *Fix   `json:"fix,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Rule)
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// matchPkg reports whether an import path matches a scope pattern: the
// pattern equals the path, or aligns with it on "/" boundaries
// ("internal/lp" matches "abw/internal/lp"; "cmd" matches
// "abw/cmd/abwsim").
func matchPkg(path, pattern string) bool {
	if path == pattern {
		return true
	}
	if strings.HasSuffix(path, "/"+pattern) || strings.HasPrefix(path, pattern+"/") {
		return true
	}
	return strings.Contains(path, "/"+pattern+"/")
}

func (a *Analyzer) appliesTo(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, pat := range a.Packages {
		if matchPkg(pkgPath, pat) {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the packages, honoring each rule's
// package scope, then applies //lint:ignore suppression and appends a
// diagnostic for every malformed or unused ignore directive. The result
// is sorted by file, line, column, rule.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.appliesTo(pkg.Path) {
				continue
			}
			raw = append(raw, runOne(pkg, a)...)
		}
	}
	return finish(pkgs, analyzers, raw)
}

func runOne(pkg *Package, a *Analyzer) []Diagnostic {
	var out []Diagnostic
	pass := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		pkg:      pkg,
		analyzer: a,
		diags:    &out,
	}
	a.Run(pass)
	return out
}

// finish applies suppression and reports ignore-directive hygiene:
// malformed directives and directives that suppress nothing are both
// findings, so stale ignores rot out of the tree instead of lingering.
func finish(pkgs []*Package, analyzers []*Analyzer, raw []Diagnostic) []Diagnostic {
	// Directive names validate against the FULL registry, not the set
	// that ran: `-rules errflow` must not turn every valid directive for
	// another rule into an "unknown rule" finding.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.ID()] = true
	}
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.ID()] = true
	}
	idx, bad := buildIgnoreIndex(pkgs, known)
	out := bad
	for _, d := range raw {
		if idx.suppresses(d) {
			continue
		}
		out = append(out, d)
	}
	out = append(out, idx.unused(active)...)
	sortDiagnostics(out)
	return out
}

// inspectWithStack walks root in source order invoking f with each node
// and its ancestor stack (outermost first, excluding the node itself).
// Returning false from f prunes the node's children.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if !f(n, stack) {
			return
		}
		stack = append(stack, n)
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			walk(c)
			return false
		})
		stack = stack[:len(stack)-1]
	}
	walk(root)
}
