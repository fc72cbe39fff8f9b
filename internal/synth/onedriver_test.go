package synth

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneFitDriver pins the single Phase 2 driver mechanically: outside
// bench/ (which times the sampler's layers on purpose) and internal/mcmc,
// the module's non-test code drives a Runner with Run exactly once, in
// fit.run, the one chain loop. A second way to run a fit, with its own
// stop set, rng spelling and progress assembly, cannot come back
// unnoticed.
func TestOneFitDriver(t *testing.T) {
	const root = "../.."
	const mcmcPath = "wpinq/internal/mcmc"
	var drivers []string
	checked := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch {
			case rel == "bench", rel == filepath.Join("internal", "mcmc"), d.Name() == "testdata",
				rel != "." && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		checked++
		// Whether this file imports the sampler package, and every
		// import's name: X.Run with X a package is not a method call.
		importsMCMC, pkgs := false, map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = true
			if p == mcmcPath {
				importsMCMC = true
			}
		}
		if !importsMCMC {
			return nil // cannot name a Runner
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, isIdent := sel.X.(*ast.Ident)
			if sel.Sel.Name == "Run" && len(call.Args) == 1 && !(isIdent && pkgs[x.Name]) {
				drivers = append(drivers, fset.Position(call.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 40 {
		t.Fatalf("only %d files inspected: the walk no longer finds the module", checked)
	}
	if len(drivers) != 1 || !strings.HasSuffix(filepath.ToSlash(strings.SplitN(drivers[0], ":", 2)[0]), "internal/synth/fit.go") {
		t.Errorf("a Runner is driven with Run from %v, want exactly one call, in internal/synth/fit.go", drivers)
	}
}
