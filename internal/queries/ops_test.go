package queries

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
)

const enginePkg = "wpinq/internal/engine"

// importsEngine reports whether the Go source file at path imports the
// sharded executor.
func importsEngine(t *testing.T, path string) bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == enginePkg {
			return true
		}
	}
	return false
}

// TestOnlyOpsImportsEngine pins the one-description property
// structurally: the executor choice lives in ops.go alone, so no other
// file of this package — and not the workload registrations — can name
// an executor-specific operator and grow a second copy of a pipeline.
func TestOnlyOpsImportsEngine(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var importers []string
	for _, path := range files {
		if !strings.HasSuffix(path, "_test.go") && importsEngine(t, path) {
			importers = append(importers, path)
		}
	}
	if len(importers) != 1 || importers[0] != "ops.go" {
		t.Errorf("non-test files importing %s: %v, want exactly [ops.go]", enginePkg, importers)
	}
	if importsEngine(t, filepath.Join("..", "workload", "builtin.go")) {
		t.Errorf("internal/workload/builtin.go imports %s: workloads register one executor-independent pipeline", enginePkg)
	}
}

// TestBinaryOperatorsRejectMixedExecutors pins the check the type system
// made before the builders merged: one operand per executor is refused at
// construction, with both operand types in the message.
func TestBinaryOperatorsRejectMixedExecutors(t *testing.T) {
	serial := incremental.NewInput[graph.Edge]()
	sharded := engine.NewInput[graph.Edge](engine.New(1))
	key := func(e graph.Edge) graph.Node { return e.Src }
	for name, build := range map[string]func(){
		"join":      func() { join(serial, sharded, key, key, func(x, _ graph.Edge) graph.Edge { return x }) },
		"intersect": func() { intersect[graph.Edge](sharded, serial) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				for _, want := range []string{"*incremental.Input[", "*engine.Input["} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not name operand type %s", msg, want)
					}
				}
			}()
			build()
			t.Error("mixed-executor operands accepted")
		})
	}
}
