package queries

import (
	"math"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
)

func motifWeight(t *testing.T, g *graph.Graph, p Pattern) float64 {
	t.Helper()
	e, err := MotifCount(p)
	if err != nil {
		t.Fatal(err)
	}
	return OneShot(e, publicEdges(g)).Snapshot().Weight(Unit{})
}

func TestPatternValidate(t *testing.T) {
	bad := []Pattern{
		{K: 1, Edges: [][2]int{{0, 0}}},
		{K: 3, Edges: nil},
		{K: 3, Edges: [][2]int{{0, 3}}},         // out of range
		{K: 3, Edges: [][2]int{{0, 0}}},         // self loop
		{K: 3, Edges: [][2]int{{0, 1}, {1, 0}}}, // duplicate
		{K: 4, Edges: [][2]int{{0, 1}, {2, 3}}}, // disconnected
		{K: 9, Edges: [][2]int{{0, 1}}},         // too large
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("pattern %d should be invalid: %+v", i, p)
		}
	}
	for _, p := range []Pattern{TrianglePattern, SquarePattern, PathPattern3, StarPattern4} {
		if err := p.Validate(); err != nil {
			t.Errorf("builtin pattern invalid: %v", err)
		}
	}
}

func TestPatternUses(t *testing.T) {
	// The compiled plan reads the edge dataset once per pattern edge, and
	// a measurement charges exactly that on the budget.
	e, err := MotifCount(SquarePattern)
	if err != nil {
		t.Fatal(err)
	}
	if got := Uses(e); got != len(SquarePattern.Edges) {
		t.Errorf("Uses = %d, want one per pattern edge (%d)", got, len(SquarePattern.Edges))
	}
	src := budget.NewSource("edges", 100)
	edges := core.FromDataset(graph.SymmetricEdges(k4()), src)
	if got := OneShot(e, edges).Uses().Count(src); got != len(SquarePattern.Edges) {
		t.Errorf("plan uses = %d, want %d", got, len(SquarePattern.Edges))
	}
}

func TestMotifPresenceAbsence(t *testing.T) {
	tri := triangleGraph()
	square := c4()
	cases := []struct {
		name    string
		g       *graph.Graph
		p       Pattern
		present bool
	}{
		{"triangle in triangle", tri, TrianglePattern, true},
		{"triangle in C4", square, TrianglePattern, false},
		{"square in C4", square, SquarePattern, true},
		{"square in triangle", tri, SquarePattern, false},
		{"wedge in triangle", tri, PathPattern3, true},
		{"3-star in C4", square, StarPattern4, false}, // C4 has max degree 2
		{"3-star in K4", k4(), StarPattern4, true},
	}
	for _, c := range cases {
		w := motifWeight(t, c.g, c.p)
		if c.present && w <= 1e-9 {
			t.Errorf("%s: weight = %v, want positive", c.name, w)
		}
		if !c.present && math.Abs(w) > 1e-9 {
			t.Errorf("%s: weight = %v, want 0", c.name, w)
		}
	}
}

func TestMotifWeightGrowsWithPrevalence(t *testing.T) {
	// Two disjoint triangles carry twice the weight of one (disjoint
	// structures do not interact through join normalization).
	one := triangleGraph()
	two := triangleGraph()
	two.AddEdge(10, 11)
	two.AddEdge(11, 12)
	two.AddEdge(12, 10)
	w1 := motifWeight(t, one, TrianglePattern)
	w2 := motifWeight(t, two, TrianglePattern)
	if math.Abs(w2-2*w1) > 1e-9 {
		t.Errorf("two disjoint triangles weight = %v, want 2 x %v", w2, w1)
	}
}

func TestMotifPathCountOnPathGraph(t *testing.T) {
	// Path 0-1-2 contains exactly two wedge embeddings (0,1,2) and
	// (2,1,0); weight must be positive, and zero on a single edge.
	p := graph.New()
	p.AddEdge(0, 1)
	p.AddEdge(1, 2)
	if w := motifWeight(t, p, PathPattern3); w <= 0 {
		t.Errorf("wedge weight on path = %v, want positive", w)
	}
	single := graph.New()
	single.AddEdge(0, 1)
	if w := motifWeight(t, single, PathPattern3); w != 0 {
		t.Errorf("wedge weight on edge = %v, want 0", w)
	}
}

func TestMotifPipelineMatchesQuery(t *testing.T) {
	for _, p := range []Pattern{TrianglePattern, SquarePattern, PathPattern3} {
		e, err := MotifCount(p)
		if err != nil {
			t.Fatal(err)
		}
		checkPipelineMatchesQuery(t, allLayouts, "Motif:"+p.fragmentKey(), e, 6)
	}
}

func TestMotifRejectsInvalidPattern(t *testing.T) {
	if _, err := MotifCount(Pattern{K: 3}); err == nil {
		t.Error("invalid pattern accepted by MotifCount")
	}
}

func TestWedgeCountMatchesPathNorm(t *testing.T) {
	// WedgeCount's single record accumulates the whole paths dataset's
	// weight: sum over paths of 1/(2 d_b) = sum over b of d_b(d_b-1)/(2 d_b)
	// = sum over b of (d_b - 1)/2.
	g := k4() // all degrees 3: 4 * (3-1)/2 = 4
	w := OneShot(WedgeCount(), publicEdges(g)).Snapshot().Weight(Unit{})
	if math.Abs(w-4.0) > 1e-9 {
		t.Errorf("wedge weight = %v, want 4", w)
	}
}

func TestEmbeddingInjective(t *testing.T) {
	e := emptyEmbedding()
	if !injective(e) {
		t.Error("empty embedding should be injective")
	}
	e[0], e[1] = 5, 6
	if !injective(e) {
		t.Error("distinct assignment should be injective")
	}
	e[2] = 5
	if injective(e) {
		t.Error("duplicate assignment should not be injective")
	}
}
