package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestOneDataflowLayer pins, from the source, that there is one graph
// layer: publish/subscribe lives in engine.Stream and nowhere else. No
// type of internal/incremental has a Subscribe or SubscribeTxn method or embeds a Stream (its operator bodies are state machines the
// engine calls, its Source an interface engine streams satisfy), Stream is
// the only type of internal/engine that has them, and the engine declares
// no Collector of its own (incremental.Collect is the one materialising
// sink).
func TestOneDataflowLayer(t *testing.T) {
	pubsub := map[string]bool{"Subscribe": true, "SubscribeTxn": true}
	fset := token.NewFileSet()
	for dir, allowed := range map[string]string{"../incremental": "", ".": "Stream"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				files++
				ast.Inspect(f, func(n ast.Node) bool {
					switch d := n.(type) {
					case *ast.FuncDecl:
						if d.Recv != nil && pubsub[d.Name.Name] && baseName(d.Recv.List[0].Type) != allowed {
							t.Errorf("%s: %s declares %s: a second publish/subscribe layer",
								fset.Position(d.Pos()), baseName(d.Recv.List[0].Type), d.Name.Name)
						}
					case *ast.TypeSpec:
						if dir == "." && d.Name.Name == "Collector" {
							t.Errorf("%s: the engine declares a Collector", fset.Position(d.Pos()))
						}
						st, ok := d.Type.(*ast.StructType)
						if !ok || dir == "." {
							return true
						}
						for _, field := range st.Fields.List {
							if len(field.Names) == 0 && baseName(field.Type) == "Stream" {
								t.Errorf("%s: %s embeds a Stream", fset.Position(field.Pos()), d.Name.Name)
							}
						}
					}
					return true
				})
			}
		}
		if files < 4 {
			t.Fatalf("%s: only %d files inspected", dir, files)
		}
	}
}

// baseName returns the type name under pointers, instantiation and
// package qualifiers: *pkg.Stream[T] is "Stream".
func baseName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return baseName(x.X)
	case *ast.IndexExpr:
		return baseName(x.X)
	case *ast.IndexListExpr:
		return baseName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// TestEveryOperatorIsLowered pins, from the source, that the engine
// carries only operators some analysis runs on: every exported
// package-level function of its non-test files other than New and
// NewInput is called from ../queries/expr.go, the one file that lowers
// analyses onto the engine.
func TestEveryOperatorIsLowered(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	expr, err := parser.ParseFile(fset, "../queries/expr.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lowered := map[string]bool{}
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "engine" {
				lowered[sel.Sel.Name] = true
			}
		}
		return true
	})
	operators := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Name.Name == "New" || fn.Name.Name == "NewInput" {
					continue
				}
				operators++
				if !lowered[fn.Name.Name] {
					t.Errorf("%s: engine.%s has no caller in queries/expr.go: no analysis lowers to it",
						fset.Position(fn.Pos()), fn.Name.Name)
				}
			}
		}
	}
	if operators != 8 {
		t.Errorf("%d exported operator constructors, want the eight queries lowers to", operators)
	}
}
