package queries

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneDescriptionPerAnalysis pins the single description mechanically:
// outside expr.go, no non-test file of this package or of
// wpinq/internal/workload calls an operator constructor of core or of
// engine. An analysis transcribed over a backend's operators — a second
// description — cannot come back unnoticed; it has to be an Expr, which
// both backends are lowered from.
func TestOneDescriptionPerAnalysis(t *testing.T) {
	operators := map[string]bool{}
	for _, name := range []string{"Select", "Where", "SelectMany", "SelectManySlice", "Shave", "ShaveConst",
		"GroupBy", "Join", "JoinDistinct", "Intersect", "Union", "Concat", "Except"} {
		operators[name] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob("../workload/*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	fset := token.NewFileSet()
	for _, path := range append(files, more...) {
		if strings.HasSuffix(path, "_test.go") || path == "expr.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "core" || pkg.Name == "engine") && operators[sel.Sel.Name] {
				t.Errorf("%s: %s.%s outside expr.go: describe the analysis as an Expr",
					fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
	if checked < 8 {
		t.Fatalf("only %d files inspected: the globs no longer find the two packages", checked)
	}
}
