package queries

import (
	"math/rand"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

func testRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

// swapDiffs returns the 8 symmetric directed edge differences of replacing
// undirected edges {a,b}, {c,d} with {a,d}, {c,b}.
func swapDiffs(a, b, c, d graph.Node) []incremental.Delta[graph.Edge] {
	return []incremental.Delta[graph.Edge]{
		{Record: graph.Edge{Src: a, Dst: b}, Weight: -1},
		{Record: graph.Edge{Src: b, Dst: a}, Weight: -1},
		{Record: graph.Edge{Src: c, Dst: d}, Weight: -1},
		{Record: graph.Edge{Src: d, Dst: c}, Weight: -1},
		{Record: graph.Edge{Src: a, Dst: d}, Weight: 1},
		{Record: graph.Edge{Src: d, Dst: a}, Weight: 1},
		{Record: graph.Edge{Src: c, Dst: b}, Weight: 1},
		{Record: graph.Edge{Src: b, Dst: c}, Weight: 1},
	}
}

// testGraph builds a small clustered graph with enough structure to
// exercise every pipeline (triangles, squares, degree spread).
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.HolmeKim(40, 3, 0.7, testRng())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pipelineLayout is one subtest the pipeline-vs-query checks run. The
// names are those of the executor layouts the checks once ran under (the
// retired reference engine, one shard, four shards dispatching in
// parallel), kept because test ids outlive what they named. Every row
// runs the one engine there is; each walks its own swap sequence, and
// the first walks the checks' original one.
type pipelineLayout struct {
	name string
	seed int64 // of the edge swaps
}

var allLayouts = []pipelineLayout{
	{"serial", 99},
	{"shards=1,cutoff=512", 1099},
	{"shards=4,cutoff=0", 2099},
}

// The first row and the others, for the tests that are split by them.
var serialLayout, engineLayouts = allLayouts[:1], allLayouts[1:]

// checkPipelineMatchesQuery is the one table every description is held
// to: on each row it lowers e to the executor, loads a graph, applies
// a series of random valid edge swaps, and verifies after each step that
// the stream's output equals e's one-shot lowering on the current graph
// — the end-to-end equivalence of the tree's two lowerings. (That the
// one-shot lowering computes the right thing is the closed-form tests'
// job: they do not share these lambdas.)
func checkPipelineMatchesQuery[T comparable](t *testing.T, layouts []pipelineLayout, name string, e Expr[T], swaps int) {
	t.Helper()
	for _, l := range layouts {
		l := l
		t.Run(name+"/"+l.name, func(t *testing.T) {
			g := testGraph(t)
			in := engine.NewInput[graph.Edge](engine.New())
			out := incremental.Collect(Stream(e, nil, in))
			in.PushDataset(graph.SymmetricEdges(g))

			compare := func(step int) {
				want := OneShot(e, publicEdges(g)).Snapshot()
				if !weighted.Equal(out.Snapshot(), want, 1e-6) {
					t.Fatalf("%s diverged at step %d", name, step)
				}
			}
			compare(-1)

			rng := rand.New(rand.NewSource(l.seed))
			edges := g.EdgeList()
			for step := 0; step < swaps; step++ {
				ei, ej := rng.Intn(len(edges)), rng.Intn(len(edges))
				if ei == ej {
					continue
				}
				a, b := edges[ei].Src, edges[ei].Dst
				c, d := edges[ej].Src, edges[ej].Dst
				if rng.Intn(2) == 0 {
					c, d = d, c
				}
				if a == d || c == b || a == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
					continue
				}
				g.RemoveEdge(a, b)
				g.RemoveEdge(c, d)
				g.AddEdge(a, d)
				g.AddEdge(c, b)
				edges[ei] = graph.Edge{Src: a, Dst: d}
				edges[ej] = graph.Edge{Src: c, Dst: b}
				in.Push(swapDiffs(a, b, c, d))
				compare(step)
			}
		})
	}
}

// The TbI/TbD/JDD/wedges/star4 equivalence checks live in the
// registry-driven table test in wpinq/internal/workload
// (TestRegisteredWorkloadsMatchQueryOnEveryExecutor), which covers every
// registered workload on every row. The checks here and in
// motif_test.go / motifdegree_test.go cover the descriptions that are not
// registry workloads.

func TestDegreePipelinesMatchQueries(t *testing.T) {
	checkPipelineMatchesQuery(t, serialLayout, "DegreeCCDF", DegreeCCDF(), 25)
	checkPipelineMatchesQuery(t, serialLayout, "DegreeSequence", DegreeSequence(), 25)
}

func TestEngineDegreeCCDFPipelineMatchesQuery(t *testing.T) {
	checkPipelineMatchesQuery(t, engineLayouts, "EngineDegreeCCDF", DegreeCCDF(), 12)
}

func TestEngineDegreeSequencePipelineMatchesQuery(t *testing.T) {
	checkPipelineMatchesQuery(t, engineLayouts, "EngineDegreeSequence", DegreeSequence(), 12)
}

func TestSbDPipelineMatchesQuery(t *testing.T) {
	checkPipelineMatchesQuery(t, serialLayout, "SbD", SbD(), 6)
}

func TestEngineSbDPipelineMatchesQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("SbD pipeline is the heaviest; skipped in -short mode")
	}
	checkPipelineMatchesQuery(t, engineLayouts, "EngineSbD", SbD(), 4)
}

func TestTbIPipelineRollback(t *testing.T) {
	// Pushing a swap and its inverse restores the pipeline exactly: the
	// MCMC rejection path on a real query.
	g := testGraph(t)
	in := engine.NewInput[graph.Edge](engine.New())
	out := incremental.Collect(Stream(TbI(), nil, in))
	in.PushDataset(graph.SymmetricEdges(g))
	before := out.Weight(Unit{})

	edges := g.EdgeList()
	a, b := edges[0].Src, edges[0].Dst
	c, d := edges[len(edges)-1].Src, edges[len(edges)-1].Dst
	if a == d || c == b || a == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
		t.Skip("fixture edges unsuitable for swap")
	}
	in.Push(swapDiffs(a, b, c, d))
	in.Push(swapDiffs(a, d, c, b)) // inverse: {a,d},{c,b} -> {a,b},{c,d}
	after := out.Weight(Unit{})
	if diff := after - before; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("rollback drift: %v -> %v", before, after)
	}
}
