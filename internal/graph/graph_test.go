package graph

import (
	"math"
	"slices"
	"testing"
)

// triangleGraph returns K4 minus one edge plus a pendant: 2 triangles.
func twoTriangles() *Graph {
	g := New()
	// Triangle 1: 0-1-2; triangle 2: 1-2-3; pendant 4 on 0.
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	return g
}

func TestAddEdgeRejectsLoopsAndDuplicates(t *testing.T) {
	g := New()
	if g.AddEdge(1, 1) {
		t.Error("self-loop accepted")
	}
	if !g.AddEdge(1, 2) {
		t.Error("valid edge rejected")
	}
	if g.AddEdge(2, 1) {
		t.Error("duplicate (reversed) edge accepted")
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", g.NumEdges())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	if !g.RemoveEdge(2, 1) {
		t.Error("existing edge not removed")
	}
	if g.RemoveEdge(1, 2) {
		t.Error("removed edge removed twice")
	}
	if g.NumEdges() != 0 || g.Degree(1) != 0 {
		t.Error("removal did not update state")
	}
}

func TestDegreesAndSequence(t *testing.T) {
	g := twoTriangles()
	if g.Degree(1) != 3 || g.Degree(4) != 1 {
		t.Errorf("degrees = %d, %d; want 3, 1", g.Degree(1), g.Degree(4))
	}
	seq := g.DegreeSequence()
	want := []int{3, 3, 3, 2, 1}
	if len(seq) != len(want) {
		t.Fatalf("sequence length = %d, want %d", len(seq), len(want))
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Errorf("seq[%d] = %d, want %d", i, seq[i], want[i])
		}
	}
	if g.MaxDegree() != 3 {
		t.Errorf("dmax = %d, want 3", g.MaxDegree())
	}
}

func TestIsolated(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []Node
		edges []Edge
		drop  []Edge
		want  []Node
	}{
		{name: "empty"},
		{name: "no isolated", edges: []Edge{{0, 1}, {1, 2}}},
		{name: "ascending", nodes: []Node{9, 4, 7}, edges: []Edge{{5, 6}}, want: []Node{4, 7, 9}},
		{name: "added node gains an edge", nodes: []Node{3, 8}, edges: []Edge{{3, 1}}, want: []Node{8}},
		{name: "last edge removed", edges: []Edge{{0, 1}, {1, 2}}, drop: []Edge{{0, 1}}, want: []Node{0}},
	} {
		g := New()
		for _, v := range tc.nodes {
			g.AddNode(v)
		}
		for _, e := range tc.edges {
			g.AddEdge(e.Src, e.Dst)
		}
		for _, e := range tc.drop {
			g.RemoveEdge(e.Src, e.Dst)
		}
		if got := g.Isolated(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Isolated() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTrianglesExact(t *testing.T) {
	g := twoTriangles()
	if got := g.Triangles(); got != 2 {
		t.Errorf("triangles = %d, want 2", got)
	}
	// Complete graph K5 has C(5,3) = 10 triangles.
	k5 := New()
	for i := Node(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			k5.AddEdge(i, j)
		}
	}
	if got := k5.Triangles(); got != 10 {
		t.Errorf("K5 triangles = %d, want 10", got)
	}
	// A star has none.
	star := New()
	for i := Node(1); i <= 10; i++ {
		star.AddEdge(0, i)
	}
	if got := star.Triangles(); got != 0 {
		t.Errorf("star triangles = %d, want 0", got)
	}
}

func TestWorstBestCaseFigure1(t *testing.T) {
	// Figure 1 left: star on |V| nodes plus the edge (1,2) creates
	// |V|-2 triangles.
	n := Node(20)
	star := New()
	for i := Node(3); i <= n; i++ {
		star.AddEdge(1, i)
		star.AddEdge(2, i)
	}
	if got := star.Triangles(); got != 0 {
		t.Fatalf("pre-edge triangles = %d, want 0", got)
	}
	star.AddEdge(1, 2)
	if got, want := star.Triangles(), int64(n-2); got != want {
		t.Errorf("post-edge triangles = %d, want %d", got, want)
	}
}

func TestTrianglesByDegree(t *testing.T) {
	g := twoTriangles()
	tbd := g.TrianglesByDegree()
	// Triangle 0-1-2 has degrees (3,3,3) [d0=3 with pendant]; triangle
	// 1-2-3 has degrees (3,3,2).
	if got := tbd[[3]int{3, 3, 3}]; got != 1 {
		t.Errorf("tbd[3,3,3] = %d, want 1", got)
	}
	if got := tbd[[3]int{2, 3, 3}]; got != 1 {
		t.Errorf("tbd[2,3,3] = %d, want 1", got)
	}
	var total int64
	for _, c := range tbd {
		total += c
	}
	if total != g.Triangles() {
		t.Errorf("tbd total = %d, want %d", total, g.Triangles())
	}
}

func TestFourCycles(t *testing.T) {
	// C4 itself: exactly one 4-cycle.
	c4 := New()
	c4.AddEdge(0, 1)
	c4.AddEdge(1, 2)
	c4.AddEdge(2, 3)
	c4.AddEdge(3, 0)
	if got := c4.FourCycles(); got != 1 {
		t.Errorf("C4 four-cycles = %d, want 1", got)
	}
	// K4 has 3 four-cycles.
	k4 := New()
	for i := Node(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4.AddEdge(i, j)
		}
	}
	if got := k4.FourCycles(); got != 3 {
		t.Errorf("K4 four-cycles = %d, want 3", got)
	}
	// A triangle has none.
	tri := New()
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	if got := tri.FourCycles(); got != 0 {
		t.Errorf("triangle four-cycles = %d, want 0", got)
	}
}

func TestAssortativityExtremes(t *testing.T) {
	// A cycle is degree-regular: r undefined, reported as 0.
	cyc := New()
	for i := Node(0); i < 10; i++ {
		cyc.AddEdge(i, (i+1)%10)
	}
	if got := cyc.Assortativity(); got != 0 {
		t.Errorf("regular graph r = %v, want 0", got)
	}
	// A star is maximally disassortative: r = -1.
	star := New()
	for i := Node(1); i <= 6; i++ {
		star.AddEdge(0, i)
	}
	if got := star.Assortativity(); math.Abs(got+1) > 1e-9 {
		t.Errorf("star r = %v, want -1", got)
	}
	// Two disjoint cliques of different sizes: positive assortativity.
	cl := New()
	for i := Node(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			cl.AddEdge(i, j)
		}
	}
	for i := Node(10); i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			cl.AddEdge(i, j)
		}
	}
	if got := cl.Assortativity(); got <= 0.9 {
		t.Errorf("disjoint cliques r = %v, want ~1", got)
	}
}

func TestSumDegreeSquares(t *testing.T) {
	g := twoTriangles()
	// Degrees: 3,3,3,2,1 -> 9+9+9+4+1 = 32.
	if got := g.SumDegreeSquares(); got != 32 {
		t.Errorf("sum d^2 = %d, want 32", got)
	}
}

func TestGlobalClustering(t *testing.T) {
	tri := New()
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	if got := tri.GlobalClustering(); math.Abs(got-1) > 1e-12 {
		t.Errorf("triangle clustering = %v, want 1", got)
	}
	star := New()
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	if got := star.GlobalClustering(); got != 0 {
		t.Errorf("star clustering = %v, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := twoTriangles()
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("mutating clone affected original")
	}
	if c.NumEdges() != g.NumEdges()-1 {
		t.Error("clone edge count wrong")
	}
}

// TestRanked pins the measurement boundary's relabel: ids 0, …, n−1
// come back as the same graph, and any other ids map onto [0, n) by
// rank, keeping edges, isolated vertices and EdgeList's order.
func TestRanked(t *testing.T) {
	g := twoTriangles()
	if g.Ranked() != g {
		t.Error("Ranked copied a graph whose ids already are 0..n-1")
	}
	ids := []Node{math.MinInt32, -1, 0, 7, math.MaxInt32} // ranks 0..4
	foreign := New()
	for _, e := range g.EdgeList() {
		foreign.AddEdge(ids[e.Src], ids[e.Dst])
	}
	foreign.AddNode(-5) // isolated, ranked between MinInt32 and -1
	r := foreign.Ranked()
	want := map[Node]Node{math.MinInt32: 0, -5: 1, -1: 2, 0: 3, 7: 4, math.MaxInt32: 5}
	if !slices.Equal(r.Nodes(), []Node{0, 1, 2, 3, 4, 5}) || !slices.Equal(r.Isolated(), []Node{1}) {
		t.Fatalf("ranked nodes %v, isolated %v", r.Nodes(), r.Isolated())
	}
	if r.NumEdges() != foreign.NumEdges() {
		t.Errorf("ranked graph has %d edges, want %d", r.NumEdges(), foreign.NumEdges())
	}
	fe, re := foreign.EdgeList(), r.EdgeList()
	for i := range fe {
		if re[i] != (Edge{want[fe[i].Src], want[fe[i].Dst]}) {
			t.Errorf("ranked edge %d = %v, want %v ranked", i, re[i], fe[i])
		}
	}
	if !foreign.HasEdge(math.MinInt32, -1) {
		t.Error("Ranked modified its receiver")
	}
}

func TestEdgeListDeterministic(t *testing.T) {
	g := twoTriangles()
	a := g.EdgeList()
	b := g.EdgeList()
	if len(a) != g.NumEdges() {
		t.Fatalf("edge list length = %d, want %d", len(a), g.NumEdges())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("EdgeList not deterministic")
		}
		if a[i].Src >= a[i].Dst {
			t.Fatalf("edge %v not normalized", a[i])
		}
	}
}

func TestComputeStats(t *testing.T) {
	s := ComputeStats(twoTriangles())
	if s.Nodes != 5 || s.DirectedEdges != 12 || s.MaxDegree != 3 || s.Triangles != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.SumDegSquares != 32 {
		t.Errorf("sumd2 = %d, want 32", s.SumDegSquares)
	}
}
