// The package loader: discovers the module, expands "./..." patterns,
// parses and type-checks packages in dependency order. Intra-module
// imports are checked from source here; standard-library imports go
// through go/importer's "source" compiler, so the whole pipeline stays
// inside the stdlib (no x/tools, no go.sum).
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("abw/internal/lp").
	Path string
	// Dir is the absolute directory.
	Dir  string
	Fset *token.FileSet
	// Files are the parsed non-test Go files, sorted by file name.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// cg is the lazily-built interprocedural call graph (callgraph.go),
	// shared by every analyzer that runs over this package.
	cg *CallGraph
}

// Loader parses and type-checks packages. It caches everything it
// loads, so repeated Load calls (and the stdlib source importer's work)
// are paid once per Loader.
type Loader struct {
	// Dir is the working directory patterns resolve against; defaults to
	// the process working directory.
	Dir string

	// Tests, when set, makes Load return test-augmented packages: each
	// matched package is re-type-checked with its in-package _test.go
	// files included (and an external _test package, if one exists, is
	// returned as its own Package). Importers of the package still see
	// the plain, non-augmented types, so test-only imports can never
	// create cycles through the loader.
	Tests bool

	fset    *token.FileSet
	ctx     build.Context
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	testPkg map[string]*Package // test-augmented, by import path
	loading map[string]bool     // cycle detection

	modRoot string
	modPath string
}

// buildContextOnce disables cgo for the process-wide build context the
// stdlib source importer captures: every package in this module (and
// every stdlib package it pulls in) has a pure-Go path, and skipping
// cgo keeps the importer hermetic.
var buildContextOnce sync.Once

// NewLoader returns an empty loader.
func NewLoader() *Loader {
	buildContextOnce.Do(func() { build.Default.CgoEnabled = false })
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.CgoEnabled = false
	return &Loader{
		fset:    fset,
		ctx:     ctx,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		testPkg: make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// ModuleRoot returns the module root directory discovered by Load, or
// empty before the first Load.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// Load expands the patterns ("./...", "./dir/...", "./dir", ".")
// relative to l.Dir, loads every matched package plus its intra-module
// dependency closure, and returns the matched packages sorted by import
// path. Only the returned (matched) packages are analyzed by Run; the
// closure exists to type-check them.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dir := l.Dir
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if l.modRoot == "" {
		root, path, err := findModule(dir)
		if err != nil {
			return nil, err
		}
		l.modRoot, l.modPath = root, path
	}

	var dirs []string
	seen := make(map[string]bool)
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(dir, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			if err := walkGoDirs(base, func(d string) { addDir(d) }); err != nil {
				return nil, err
			}
			continue
		}
		addDir(filepath.Join(dir, filepath.FromSlash(pat)))
	}

	var out []*Package
	for _, d := range dirs {
		imp, err := l.importPathFor(d)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadPackage(imp)
		if err != nil {
			if _, nogo := err.(*build.NoGoError); nogo {
				// A directory holding only _test.go files is invisible to
				// the plain build but still wants linting in -tests mode.
				if !l.Tests || !hasTestFiles(&l.ctx, d) {
					continue
				}
			} else {
				return nil, err
			}
		}
		if !l.Tests {
			// A directory holding only _test.go files type-checks to an
			// empty package (ImportDir lists test files, so it is not a
			// NoGoError); without tests there is nothing to lint.
			if pkg != nil && len(pkg.Files) > 0 {
				out = append(out, pkg)
			}
			continue
		}
		aug, xtest, err := l.loadTestPackages(imp, d, pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, aug)
		if xtest != nil {
			out = append(out, xtest)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// hasTestFiles reports whether dir contains _test.go files even when it
// has no plain Go files.
func hasTestFiles(ctx *build.Context, dir string) bool {
	bp, _ := ctx.ImportDir(dir, 0)
	return bp != nil && (len(bp.TestGoFiles) > 0 || len(bp.XTestGoFiles) > 0)
}

// loadTestPackages returns the test-augmented form of pkg (its files
// re-type-checked together with the in-package _test.go files) and, when
// the directory declares an external test package, that package too.
// A directory with no test files returns pkg unchanged. The augmented
// types never enter the importer cache: dependents keep seeing the plain
// package, so test-only imports cannot create cycles.
func (l *Loader) loadTestPackages(imp, dir string, pkg *Package) (aug, xtest *Package, err error) {
	if p, ok := l.testPkg[imp]; ok {
		return p, l.testPkg[imp+" [xtest]"], nil
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); !nogo {
			return nil, nil, err
		}
	}
	if bp == nil || (len(bp.TestGoFiles) == 0 && len(bp.XTestGoFiles) == 0) {
		return pkg, nil, nil
	}
	// Pre-load module-internal test dependencies plainly, exactly like
	// check does for production imports.
	for _, deps := range [][]string{bp.TestImports, bp.XTestImports} {
		for _, dep := range deps {
			if l.isModuleImport(dep) && dep != imp {
				if _, err := l.loadPackage(dep); err != nil {
					return nil, nil, fmt.Errorf("lint: loading %s (for %s tests): %w", dep, imp, err)
				}
			}
		}
	}
	parse := func(names []string) ([]*ast.File, error) {
		files := make([]*ast.File, 0, len(names))
		for _, name := range names {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	testFiles, err := parse(bp.TestGoFiles)
	if err != nil {
		return nil, nil, err
	}
	var base []*ast.File
	if pkg != nil {
		base = pkg.Files
	}
	files := append(append([]*ast.File{}, base...), testFiles...)
	aug, err = l.typeCheck(imp, dir, files, (*loaderImporter)(l))
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s with tests: %w", imp, err)
	}
	l.testPkg[imp] = aug
	if len(bp.XTestGoFiles) > 0 {
		xfiles, err := parse(bp.XTestGoFiles)
		if err != nil {
			return nil, nil, err
		}
		// The external test package imports the package under test; give
		// it the augmented types so exported test hooks resolve.
		xi := &xtestImporter{base: (*loaderImporter)(l), path: imp, aug: aug.Types}
		xtest, err = l.typeCheck(imp+"_test", dir, xfiles, xi)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: type-checking %s_test: %w", imp, err)
		}
		l.testPkg[imp+" [xtest]"] = xtest
	}
	return aug, xtest, nil
}

// typeCheck runs the type checker over already-parsed files without
// touching the importer cache.
func (l *Loader) typeCheck(imp, dir string, files []*ast.File, imports types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imports,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(imp, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, typeErrs[0]
	}
	return &Package{Path: imp, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// xtestImporter resolves the package under test to its test-augmented
// types and everything else through the normal loader path.
type xtestImporter struct {
	base types.Importer
	path string
	aug  *types.Package
}

func (x *xtestImporter) Import(path string) (*types.Package, error) {
	if path == x.path {
		return x.aug, nil
	}
	return x.base.Import(path)
}

func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

// walkGoDirs visits base and every subdirectory that is not hidden,
// not testdata, and not underscore-prefixed.
func walkGoDirs(base string, visit func(dir string)) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		visit(path)
		return nil
	})
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.modRoot)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) dirForImport(imp string) string {
	if imp == l.modPath {
		return l.modRoot
	}
	rel := strings.TrimPrefix(imp, l.modPath+"/")
	return filepath.Join(l.modRoot, filepath.FromSlash(rel))
}

func (l *Loader) isModuleImport(imp string) bool {
	return imp == l.modPath || strings.HasPrefix(imp, l.modPath+"/")
}

// loadPackage loads imp (a module-internal import path) and,
// recursively, its module-internal imports, then type-checks it.
func (l *Loader) loadPackage(imp string) (*Package, error) {
	if p, ok := l.pkgs[imp]; ok {
		return p, nil
	}
	if l.loading[imp] {
		return nil, fmt.Errorf("lint: import cycle through %s", imp)
	}
	l.loading[imp] = true
	defer delete(l.loading, imp)
	return l.check(imp, l.dirForImport(imp))
}

func (l *Loader) check(imp, dir string) (*Package, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// Pre-load module-internal dependencies so the importer below only
	// ever sees cache hits for them.
	for _, dep := range bp.Imports {
		if l.isModuleImport(dep) {
			if _, err := l.loadPackage(dep); err != nil {
				return nil, fmt.Errorf("lint: loading %s (for %s): %w", dep, imp, err)
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(imp, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", imp, typeErrs[0])
	}
	p := &Package{Path: imp, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[imp] = p
	return p, nil
}

// loaderImporter resolves module-internal imports from the loader cache
// and everything else through the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if l.modPath != "" && l.isModuleImport(path) {
		p, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
