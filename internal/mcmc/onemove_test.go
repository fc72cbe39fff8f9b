package mcmc

import (
	"slices"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/incremental"
)

// nopInput is an Input nothing listens to: the walk's graph side alone.
type nopInput struct{}

func (nopInput) Push([]incremental.Delta[graph.Edge]) {}
func (nopInput) Begin()                               {}
func (nopInput) Commit()                              {}
func (nopInput) Abort()                               {}

// swapGraphs are the holme-kim, dense, star and wide-ids graphs of
// graph's TestRewireMatchesReference, isolated vertices included.
func swapGraphs(t *testing.T) map[string]func() *graph.Graph {
	build := func(f func() (*graph.Graph, error)) func() *graph.Graph {
		return func() *graph.Graph {
			g, err := f()
			if err != nil {
				t.Fatal(err)
			}
			g.AddNode(1 << 30)
			g.AddNode(-7)
			return g
		}
	}
	return map[string]func() *graph.Graph{
		"holme-kim": build(func() (*graph.Graph, error) { return graph.HolmeKim(600, 4, 0.7, testRng(1)) }),
		"dense":     build(func() (*graph.Graph, error) { return graph.ErdosRenyi(40, 600, testRng(2)) }),
		"star": build(func() (*graph.Graph, error) {
			g := graph.New()
			for v := graph.Node(1); v < 30; v++ {
				g.AddEdge(0, v)
			}
			return g, nil
		}),
		"wide-ids": build(func() (*graph.Graph, error) {
			g, rng := graph.New(), testRng(4)
			for g.NumEdges() < 400 {
				g.AddEdge(graph.Node(rng.Int31n(60))-30, graph.Node(rng.Int31n(60))<<24)
			}
			return g, nil
		}),
	}
}

// TestWalkAndRewireAreOneMove: Phase 1's Random(X) and Phase 2's walk are
// the same move. From the same graph and the same seed, N rounds of
// GraphState.Propose + Apply and graph.Rewire(g, N, rng) accept the same
// swaps, end on the same edge set and leave the rng at the same position.
func TestWalkAndRewireAreOneMove(t *testing.T) {
	for _, name := range []string{"holme-kim", "dense", "star", "wide-ids"} {
		build := swapGraphs(t)[name]
		for _, n := range []int{7, 5000, 60000} {
			walkRng, rewireRng := testRng(int64(n)+17), testRng(int64(n)+17)
			state := NewGraphState(build(), nopInput{})
			walked := 0
			for i := 0; i < n; i++ {
				if p, ok := state.Propose(walkRng); ok {
					state.Apply(p)
					walked++
				}
			}
			rewired := build()
			done := graph.Rewire(rewired, n, rewireRng)
			if walked != done {
				t.Errorf("%s/%d: the walk accepted %d swaps, Rewire %d", name, n, walked, done)
			}
			if !slices.Equal(state.Graph().EdgeList(), rewired.EdgeList()) {
				t.Errorf("%s/%d: the walk and Rewire end on different edge sets", name, n)
			}
			if !slices.Equal(state.Graph().Nodes(), rewired.Nodes()) {
				t.Errorf("%s/%d: the walk and Rewire end on different node sets", name, n)
			}
			if walkRng.Int63() != rewireRng.Int63() {
				t.Errorf("%s/%d: the walk and Rewire leave the rng at different positions", name, n)
			}
		}
	}
}
