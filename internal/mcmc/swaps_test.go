package mcmc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"

	"wpinq/internal/graph"
)

// TestGraphStateGraphIsTheLiveEdgeSet: the state holds one edge set, and
// Graph() is a snapshot of it. After commits and aborts the snapshot has
// exactly Edges() plus the seed's isolated vertices (a negative id and one
// at 2^30 among them), an earlier snapshot has not moved, and a
// checkpointed edge list that is unnormalized or repeats an edge is
// refused with graph.NewSwaps' own error.
func TestGraphStateGraphIsTheLiveEdgeSet(t *testing.T) {
	seed := swapGraphs(t)["wide-ids"]()
	seed.AddNode(-1000) // isolated, like 1<<30; -7 may be an endpoint
	state := NewGraphState(seed, nopInput{})
	before := state.Graph()
	rng := testRng(9)
	commits, aborts := 0, 0
	for commits < 50 || aborts < 50 {
		p, ok := state.Propose(rng)
		if !ok {
			continue
		}
		state.Speculate(p)
		if rng.Intn(2) == 0 {
			state.Commit()
			commits++
		} else {
			state.Abort(p)
			aborts++
		}
		live := state.Edges()
		slices.SortFunc(live, func(a, b graph.Edge) int {
			if a.Src != b.Src {
				return int(a.Src) - int(b.Src)
			}
			return int(a.Dst) - int(b.Dst)
		})
		g := state.Graph()
		if !slices.Equal(g.EdgeList(), live) {
			t.Fatalf("after %d commits and %d aborts Graph() is not Edges()", commits, aborts)
		}
		if !slices.Equal(g.Nodes(), seed.Nodes()) || g.Degree(-1000) != 0 || g.Degree(1<<30) != 0 {
			t.Fatalf("after %d commits and %d aborts Graph() lost or grew a vertex", commits, aborts)
		}
	}
	if !slices.Equal(before.EdgeList(), seed.EdgeList()) {
		t.Error("a Graph() taken before the walk moved with it: it is not a snapshot")
	}
	if slices.Equal(state.Graph().EdgeList(), seed.EdgeList()) {
		t.Error("50 committed swaps left the edge set where it started")
	}

	for name, bad := range map[string][]graph.Edge{
		"unnormalized": {{Src: 0, Dst: 1}, {Src: 3, Dst: 2}},
		"self-loop":    {{Src: 0, Dst: 1}, {Src: 2, Dst: 2}},
		"duplicate":    {{Src: 0, Dst: 1}, {Src: 2, Dst: 3}, {Src: 0, Dst: 1}},
	} {
		_, want := graph.NewSwaps(bad)
		_, err := NewGraphStateFromEdges(bad, nil, nopInput{})
		if want == nil || err == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("%s checkpoint edge list: NewGraphStateFromEdges says %v, NewSwaps %v", name, err, want)
		}
	}
}

// TestOneSwapMove pins, over the non-test sources, that the double-edge
// swap has one implementation: graph.Swaps draws, tests and applies it,
// and this package keeps no second edge set to do so itself.
func TestOneSwapMove(t *testing.T) {
	parse := func(dir string) map[string]*ast.Package {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return pkgs
	}
	// calls lists the selector and plain function names fn's body calls.
	calls := func(fn *ast.FuncDecl) []string {
		var out []string
		ast.Inspect(fn, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch f := call.Fun.(type) {
				case *ast.SelectorExpr:
					out = append(out, f.Sel.Name)
				case *ast.Ident:
					out = append(out, f.Name)
				}
			}
			return true
		})
		return out
	}

	for _, f := range parse(".")["mcmc"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "normEdge" {
					t.Error("internal/mcmc declares its own normEdge")
				}
				for _, name := range calls(d) {
					switch {
					case name == "Intn":
						t.Errorf("%s draws a slot itself: the draw is graph.Swaps.Propose", d.Name.Name)
					case name == "HasEdge" || name == "RemoveEdge", name == "AddEdge" && d.Name.Name != "Graph":
						t.Errorf("%s calls %s: only Graph() may touch a *graph.Graph, to build the snapshot", d.Name.Name, name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "GraphState" {
						continue
					}
					for _, field := range ts.Type.(*ast.StructType).Fields.List {
						if star, ok := field.Type.(*ast.StarExpr); ok {
							if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Graph" {
								t.Error("GraphState holds a *graph.Graph beside its edge set")
							}
						}
					}
				}
			}
		}
	}

	var draws []string
	for _, f := range parse("../graph")["graph"].Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names := calls(fn)
			if fn.Name.Name == "Rewire" && slices.Contains(names, "Intn") {
				t.Error("Rewire draws for itself instead of calling Swaps.Propose")
			}
			// The move's signature is its coin: two slots, then Intn(2).
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, isSel := call.Fun.(*ast.SelectorExpr)
				lit, isLit := call.Args[0].(*ast.BasicLit)
				if isSel && isLit && sel.Sel.Name == "Intn" && lit.Value == "2" {
					draws = append(draws, fn.Name.Name)
				}
				return true
			})
		}
	}
	if len(draws) != 1 || draws[0] != "Propose" {
		t.Errorf("functions in internal/graph that draw a swap: %v, want [Propose]", draws)
	}
}
