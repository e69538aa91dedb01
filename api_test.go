package abw

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestInternalAPIHasNoContextTwins pins the internal API's shape: every
// internal entry point that can be cancelled takes a context.Context,
// and none keeps a context-free twin beside it. A package (or a
// receiver type) exporting both X and XContext fails; the context-free
// surface is the abw facade alone.
func TestInternalAPIHasNoContextTwins(t *testing.T) {
	// funcs maps a scope (a package directory, or directory plus
	// receiver type) to the exported function names declared in it.
	funcs := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			scope := filepath.Dir(path)
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				scope += "." + receiverName(fd.Recv.List[0].Type)
			}
			if funcs[scope] == nil {
				funcs[scope] = make(map[string]bool)
			}
			funcs[scope][fd.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var twins []string
	for scope, names := range funcs {
		for name := range names {
			if names[name+"Context"] {
				twins = append(twins, scope+": "+name+" and "+name+"Context")
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("context-free twin: %s", tw)
	}
}

// receiverName returns the type name of a method receiver, without the
// pointer.
func receiverName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
