package lint

import "path/filepath"

// RunUnfiltered executes the analyzers over one package ignoring their
// package scopes. Fixture tests use it so rule logic is exercised under
// testdata import paths that the production scopes would exclude.
func RunUnfiltered(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		raw = append(raw, runOne(pkg, a)...)
	}
	return finish([]*Package{pkg}, analyzers, raw)
}

// LoadDir type-checks a single directory outside the module (fixture
// packages under testdata) under the given import path. Imports must
// all be standard library.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	return l.check(importPath, dir)
}
