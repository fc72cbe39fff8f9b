package graph

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := ErdosRenyi(100, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 || g.NumEdges() != 300 {
		t.Errorf("G(n,m) = (%d, %d), want (100, 300)", g.NumNodes(), g.NumEdges())
	}
	if _, err := ErdosRenyi(5, 100, rng); err == nil {
		t.Error("impossible edge count accepted")
	}
}

func TestBarabasiAlbertBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := BarabasiAlbert(500, 4, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Errorf("nodes = %d, want 500", g.NumNodes())
	}
	// Edges: seed clique C(5,2)=10 plus 4 per remaining node.
	wantEdges := 10 + 4*(500-5)
	if g.NumEdges() != wantEdges {
		t.Errorf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	// Preferential attachment must produce a hub well above the mean.
	if g.MaxDegree() < 20 {
		t.Errorf("dmax = %d; expected a hub > 20", g.MaxDegree())
	}
	if _, err := BarabasiAlbert(3, 5, 1, rng); err == nil {
		t.Error("n <= mPerNode accepted")
	}
}

func TestBarabasiAlbertAlphaRaisesMaxDegree(t *testing.T) {
	// The Table 3 sweep relies on alpha monotonically inflating hubs.
	hub := func(alpha float64) int {
		rng := rand.New(rand.NewSource(3))
		g, err := BarabasiAlbert(2000, 5, alpha, rng)
		if err != nil {
			t.Fatal(err)
		}
		return g.MaxDegree()
	}
	low, high := hub(1.0), hub(1.4)
	if high <= low {
		t.Errorf("dmax(alpha=1.4) = %d <= dmax(alpha=1.0) = %d; want growth", high, low)
	}
}

func TestHolmeKimClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	clustered, err := HolmeKim(1000, 5, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := HolmeKim(1000, 5, 0.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c, p := clustered.GlobalClustering(), plain.GlobalClustering(); c < 2*p {
		t.Errorf("triad formation did not raise clustering: %v vs %v", c, p)
	}
	if clustered.Triangles() < 4*plain.Triangles() {
		t.Errorf("triangles: clustered=%d plain=%d; want a large gap",
			clustered.Triangles(), plain.Triangles())
	}
	if _, err := HolmeKim(10, 2, 1.5, rng); err == nil {
		t.Error("pTriad > 1 accepted")
	}
}

func TestCollaborationModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := Collaboration(CollaborationConfig{
		Authors:     2000,
		Papers:      1500,
		MeanAuthors: 3.0,
		MaxAuthors:  10,
		PrefAttach:  0.5,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 1500 {
		t.Errorf("nodes = %d, want near 2000", g.NumNodes())
	}
	// Cliques-of-papers structure: strong clustering and many triangles.
	if g.GlobalClustering() < 0.15 {
		t.Errorf("clustering = %v, want collaboration-like (> 0.15)", g.GlobalClustering())
	}
	if g.Triangles() < 500 {
		t.Errorf("triangles = %d, want abundant", g.Triangles())
	}
	// Co-authorship graphs are assortative.
	if r := g.Assortativity(); r < 0.05 {
		t.Errorf("assortativity = %v, want positive", r)
	}
	if _, err := Collaboration(CollaborationConfig{Authors: 1, Papers: 1, MeanAuthors: 3}, rng); err == nil {
		t.Error("bad config accepted")
	}
}

func TestFromDegreeSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	degs := []int{3, 3, 2, 2, 2, 2}
	g, err := FromDegreeSequence(degs, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := g.DegreeSequence()
	for i := range degs {
		if got[i] != degs[i] {
			t.Fatalf("degree sequence %v, want %v", got, degs)
		}
	}
	// Non-graphical sequences must be rejected.
	if _, err := FromDegreeSequence([]int{3, 1}, 0, rng); err == nil {
		t.Error("non-graphical sequence accepted")
	}
	if _, err := FromDegreeSequence([]int{1, 1, 1}, 0, rng); err == nil {
		t.Error("odd-sum sequence accepted")
	}
	if _, err := FromDegreeSequence([]int{-1, 1}, 0, rng); err == nil {
		t.Error("negative degree accepted")
	}
}

func TestRewirePreservesDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := HolmeKim(300, 4, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Degrees()
	edgesBefore := g.NumEdges()
	trisBefore := g.Triangles()
	swaps := Rewire(g, 20*g.NumEdges(), rng)
	if swaps == 0 {
		t.Fatal("no swaps performed")
	}
	if g.NumEdges() != edgesBefore {
		t.Errorf("edges changed: %d -> %d", edgesBefore, g.NumEdges())
	}
	after := g.Degrees()
	for v, d := range before {
		if after[v] != d {
			t.Fatalf("degree of %d changed: %d -> %d", v, d, after[v])
		}
	}
	// Randomization destroys most triangles in a clustered graph: this is
	// the paper's Random(X) behaviour in Table 1. (Small skewed graphs
	// retain a configuration-model baseline, so require a 2x drop here;
	// the dataset-scale stand-ins show the full effect.)
	if g.Triangles()*2 > trisBefore {
		t.Errorf("triangles %d -> %d; rewiring should destroy most", trisBefore, g.Triangles())
	}
}

func TestSymmetricEdgesRoundTrip(t *testing.T) {
	g := twoTriangles()
	d := SymmetricEdges(g)
	if int(d.Norm()) != 2*g.NumEdges() {
		t.Errorf("dataset norm = %v, want %d", d.Norm(), 2*g.NumEdges())
	}
	// Both directions present at weight 1.
	if d.Weight(Edge{0, 1}) != 1 || d.Weight(Edge{1, 0}) != 1 {
		t.Error("missing symmetric directed records")
	}
	back := FromSymmetricEdges(d)
	if back.NumEdges() != g.NumEdges() || back.NumNodes() != g.NumNodes() {
		t.Errorf("round trip = (%d nodes, %d edges), want (%d, %d)",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

func TestFromSymmetricEdgesIgnoresNonPositive(t *testing.T) {
	d := weighted.New[Edge]()
	d.Add(Edge{1, 2}, 1)
	d.Add(Edge{3, 4}, -1)
	g := FromSymmetricEdges(d)
	if !g.HasEdge(1, 2) || g.HasEdge(3, 4) {
		t.Error("non-positive weights should not create edges")
	}
}

func TestEdgeListIO(t *testing.T) {
	g := twoTriangles()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("round trip edges = %d, want %d", back.NumEdges(), g.NumEdges())
	}
}

func TestReadEdgeListCommentsAndErrors(t *testing.T) {
	in := "# SNAP comment\n\n1\t2\n2 3\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("1\n")); err == nil {
		t.Error("single-field line accepted")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("a b\n")); err == nil {
		t.Error("non-numeric line accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err := HolmeKim(200, 3, 0.5, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := HolmeKim(200, 3, 0.5, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.EdgeList(), b.EdgeList()
	if len(ea) != len(eb) {
		t.Fatal("different edge counts for same seed")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

// edgeListHash fingerprints a graph's sorted edge list.
func edgeListHash(g *Graph) uint64 {
	h := fnv.New64a()
	for _, e := range g.EdgeList() {
		fmt.Fprintf(h, "%d,%d;", e.Src, e.Dst)
	}
	return h.Sum64()
}

// TestFromDegreeSequencePinned pins the exact graph Havel-Hakimi plus
// mixing builds for two fixed inputs. The contract: the unmixed graph is a
// function of the degree sequence alone under the total order (residual
// degree descending, vertex id ascending) — TestHavelHakimiMatchesReference
// holds it to that order's one-sort-per-vertex definition — and the swaps
// then draw from the rng over its edges in EdgeList order. Every seeded fit
// (CLI round trips, resume bit-identity) starts from such a graph, so a
// change that moves these hashes re-seeds them all and says so.
func TestFromDegreeSequencePinned(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		seed int64
		want uint64
	}{
		{300, 3, 11, 0x7a0fa7c64d925af9},
		{1000, 5, 12, 0xbb995703ea04f0b6},
	} {
		src, err := HolmeKim(tc.n, tc.m, 0.5, rand.New(rand.NewSource(tc.seed)))
		if err != nil {
			t.Fatal(err)
		}
		degrees := make([]int, tc.n)
		for i := range degrees {
			degrees[i] = src.Degree(Node(i))
		}
		g, err := FromDegreeSequence(degrees, 2, rand.New(rand.NewSource(tc.seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		if got := edgeListHash(g); got != tc.want {
			t.Errorf("HolmeKim(%d,%d) degrees: edge-list hash %#x, want %#x", tc.n, tc.m, got, tc.want)
		}
	}
}
