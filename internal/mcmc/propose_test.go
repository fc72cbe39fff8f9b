package mcmc

import (
	"math"
	"testing"

	"wpinq/internal/graph"
)

// Distribution tests for GraphState.Propose: the walk is symmetric only
// if both re-pairings of a drawn edge pair are reachable with equal
// probability, and degenerate draws (self-loops, duplicate edges, shared
// endpoints) must be rejected rather than silently mutated into
// something valid.

// proposeState couples a graph to a no-op pipeline, for proposal-only
// tests.
func proposeState(g *graph.Graph) *GraphState {
	return NewGraphState(g, newEdgeInput())
}

// edgePair is an unordered pair of normalized edges, for tallying which
// re-pairing a proposal produced.
type edgePair struct{ a, b graph.Edge }

func normEdge(u, v graph.Node) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{Src: u, Dst: v}
}

func pairOf(p Proposal) edgePair {
	x, y := normEdge(p.A, p.D), normEdge(p.C, p.B)
	if y.Src < x.Src || (y.Src == x.Src && y.Dst < x.Dst) {
		x, y = y, x
	}
	return edgePair{x, y}
}

// TestProposeSymmetricRepairings pins the orientation flip: on two
// disjoint edges {0,1}, {2,3} the two possible re-pairings
// {{0,3},{1,2}} and {{0,2},{1,3}} must each appear with probability 1/2.
func TestProposeSymmetricRepairings(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	s := proposeState(g)

	rng := testRng(71)
	counts := make(map[edgePair]int)
	valid := 0
	const draws = 40000
	for i := 0; i < draws; i++ {
		p, ok := s.Propose(rng)
		if !ok {
			continue
		}
		valid++
		counts[pairOf(p)]++
	}
	// i == j is drawn with probability 1/2 on a two-edge list; every
	// i != j draw is valid here.
	if valid < draws/3 {
		t.Fatalf("only %d/%d draws valid; expected about half", valid, draws)
	}
	if len(counts) != 2 {
		t.Fatalf("saw %d distinct re-pairings, want 2: %v", len(counts), counts)
	}
	want := edgePair{graph.Edge{Src: 0, Dst: 3}, graph.Edge{Src: 1, Dst: 2}}
	wantFlip := edgePair{graph.Edge{Src: 0, Dst: 2}, graph.Edge{Src: 1, Dst: 3}}
	n1, n2 := counts[want], counts[wantFlip]
	if n1+n2 != valid {
		t.Fatalf("re-pairings %v do not cover the %d valid draws", counts, valid)
	}
	// Binomial(valid, 1/2): reject beyond 4 standard deviations.
	dev := math.Abs(float64(n1) - float64(valid)/2)
	if limit := 4 * math.Sqrt(float64(valid)) / 2; dev > limit {
		t.Errorf("re-pairing split %d/%d deviates %.1f from even (limit %.1f)", n1, n2, dev, limit)
	}
}

// TestProposeRejectsSharedEndpoints uses a triangle: every pair of
// distinct edges shares an endpoint, so no draw may ever produce a valid
// proposal (a shared endpoint would create a self-loop or collapse the
// swap).
func TestProposeRejectsSharedEndpoints(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	s := proposeState(g)
	rng := testRng(72)
	for i := 0; i < 20000; i++ {
		if p, ok := s.Propose(rng); ok {
			t.Fatalf("draw %d produced %+v on a triangle; all pairs share endpoints", i, p)
		}
	}
}

// TestProposeRejectsDuplicateEdges uses the complete graph K4: disjoint
// edge pairs exist, but every re-pairing hits an edge that is already
// present, so the duplicate-edge check must reject every draw.
func TestProposeRejectsDuplicateEdges(t *testing.T) {
	g := graph.New()
	for u := graph.Node(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	s := proposeState(g)
	rng := testRng(73)
	for i := 0; i < 20000; i++ {
		if p, ok := s.Propose(rng); ok {
			t.Fatalf("draw %d produced %+v on K4; every re-pairing duplicates an edge", i, p)
		}
	}
}

// TestProposeTooFewEdges: fewer than two edges can never swap.
func TestProposeTooFewEdges(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	s := proposeState(g)
	if _, ok := s.Propose(testRng(74)); ok {
		t.Error("Propose succeeded with a single edge")
	}
}

// TestProposeValidDrawsAreSound is the property check on a non-trivial
// graph: every accepted draw must reference live edges at its indices,
// create no self-loop or duplicate, and share no endpoints.
func TestProposeValidDrawsAreSound(t *testing.T) {
	rng := testRng(75)
	g, err := graph.ErdosRenyi(30, 70, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := proposeState(g)
	edges := s.Edges() // nothing is applied, so the slots do not move
	for i := 0; i < 30000; i++ {
		p, ok := s.Propose(rng)
		if !ok {
			continue
		}
		if edges[p.I] != normEdge(p.A, p.B) || edges[p.J] != normEdge(p.C, p.D) {
			t.Fatalf("draw %d: proposal %+v does not match edge list entries %v, %v",
				i, p, edges[p.I], edges[p.J])
		}
		if p.A == p.D || p.C == p.B || p.A == p.C || p.B == p.D {
			t.Fatalf("draw %d: degenerate endpoints in %+v", i, p)
		}
		if g.HasEdge(p.A, p.D) || g.HasEdge(p.C, p.B) {
			t.Fatalf("draw %d: proposal %+v would duplicate an existing edge", i, p)
		}
	}
}
