package workload_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/workload"
)

// TestRegisteredWorkloadsMatchQueryOnEveryExecutor is the registry's
// payoff for correctness coverage: one table-driven test proves, for
// EVERY registered workload, that its pipeline tracks the one-shot
// reference query exactly — initially and across a sequence of random
// edge swaps, one per row (the row names are the executor layouts the
// test once ran on; see fuseLayouts). Registering a new workload buys
// this coverage for free; no per-workload equivalence test needs to be
// written.
func TestRegisteredWorkloadsMatchQueryOnEveryExecutor(t *testing.T) {
	layouts := []struct {
		name string
		seed int64 // of the edge swaps
	}{
		{"serial", 7},
		{"engine-1", 1007},
		{"engine-4", 2007},
	}
	for _, w := range workload.All() {
		w := w
		bucket := 0
		if w.Bucketed {
			bucket = 2
		}
		for _, l := range layouts {
			l := l
			t.Run(fmt.Sprintf("%s/%s", w.Name, l.name), func(t *testing.T) {
				t.Parallel()
				g := testGraph(t)
				p := workload.NewPlan()
				col := w.Collect(p, bucket)
				p.Input().PushDataset(graph.SymmetricEdges(g))

				compare := func(step int) {
					t.Helper()
					got, err := col.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					want, err := w.Exact(g, bucket)
					if err != nil {
						t.Fatal(err)
					}
					diffMaps(t, step, got, want)
				}
				compare(-1)

				rng := rand.New(rand.NewSource(l.seed))
				edges := g.EdgeList()
				for step := 0; step < 8; step++ {
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
					p.Input().Push(swapDiffs(a, b, c, d))
					compare(step)
				}
			})
		}
	}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.HolmeKim(36, 3, 0.6, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

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

// diffMaps compares canonical key -> weight maps to float-accumulation
// tolerance, treating missing keys as zero weight.
func diffMaps(t *testing.T, step int, got, want map[string]float64) {
	t.Helper()
	const tol = 1e-6
	for k, w := range want {
		if gw := got[k]; math.Abs(gw-w) > tol*(1+math.Abs(w)) {
			t.Fatalf("step %d: record %s = %v, reference query says %v", step, k, gw, w)
		}
	}
	for k, gw := range got {
		if _, ok := want[k]; !ok && math.Abs(gw) > tol {
			t.Fatalf("step %d: record %s = %v, absent from reference query", step, k, gw)
		}
	}
}
