package queries

import (
	"math"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/weighted"
)

// k4 returns the complete graph on 4 vertices: 4 triangles, 3 squares,
// all degrees 3.
func k4() *graph.Graph {
	g := graph.New()
	for i := graph.Node(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// triangleGraph returns a single triangle 0-1-2.
func triangleGraph() *graph.Graph {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	return g
}

// c4 returns the 4-cycle 0-1-2-3.
func c4() *graph.Graph {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	return g
}

// publicEdges wraps a graph's symmetric edges as a cost-free collection so
// tests can snapshot exact weights.
func publicEdges(g *graph.Graph) *core.Collection[graph.Edge] {
	return core.FromPublic(graph.SymmetricEdges(g))
}

func TestPathsWeights(t *testing.T) {
	// In a triangle all degrees are 2: every path (a,b,c), a != c, has
	// weight 1/(2*2) = 0.25, and there are 6 such paths.
	paths := OneShot(Paths(), publicEdges(triangleGraph())).Snapshot()
	if paths.Len() != 6 {
		t.Fatalf("path count = %d, want 6", paths.Len())
	}
	paths.Range(func(p Path, w float64) {
		if math.Abs(w-0.25) > 1e-12 {
			t.Errorf("path %v weight = %v, want 0.25", p, w)
		}
	})
}

func TestNodesWeights(t *testing.T) {
	nodes := OneShot(Nodes(), publicEdges(triangleGraph())).Snapshot()
	if nodes.Len() != 3 {
		t.Fatalf("node count = %d, want 3", nodes.Len())
	}
	nodes.Range(func(n graph.Node, w float64) {
		if math.Abs(w-0.5) > 1e-12 {
			t.Errorf("node %d weight = %v, want 0.5", n, w)
		}
	})
}

func TestNodeCountWeight(t *testing.T) {
	count := OneShot(NodeCount(), publicEdges(k4())).Snapshot()
	if w := count.Weight(Unit{}); math.Abs(w-2.0) > 1e-12 {
		t.Errorf("node count weight = %v, want 2.0 (4 nodes * 0.5)", w)
	}
}

func TestDegreeCCDFExact(t *testing.T) {
	// Path graph 0-1-2: degrees 1, 2, 1. CCDF: #nodes with degree > 0 is
	// 3; degree > 1 is 1.
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	ccdf := OneShot(DegreeCCDF(), publicEdges(g)).Snapshot()
	if w := ccdf.Weight(0); math.Abs(w-3) > 1e-12 {
		t.Errorf("ccdf[0] = %v, want 3", w)
	}
	if w := ccdf.Weight(1); math.Abs(w-1) > 1e-12 {
		t.Errorf("ccdf[1] = %v, want 1", w)
	}
	if w := ccdf.Weight(2); w != 0 {
		t.Errorf("ccdf[2] = %v, want 0", w)
	}
}

func TestDegreeSequenceExact(t *testing.T) {
	// Path graph 0-1-2: non-increasing degree sequence (2, 1, 1).
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	seq := OneShot(DegreeSequence(), publicEdges(g)).Snapshot()
	want := []float64{2, 1, 1}
	for i, d := range want {
		if w := seq.Weight(i); math.Abs(w-d) > 1e-12 {
			t.Errorf("seq[%d] = %v, want %v", i, w, d)
		}
	}
	if w := seq.Weight(3); w != 0 {
		t.Errorf("seq[3] = %v, want 0", w)
	}
}

func TestDegreesHalvedAndBucketed(t *testing.T) {
	degs := OneShot(Degrees(1), publicEdges(k4())).Snapshot()
	degs.Range(func(g weighted.Grouped[graph.Node, int], w float64) {
		if g.Result != 3 {
			t.Errorf("degree of %d = %d, want 3", g.Key, g.Result)
		}
		if math.Abs(w-0.5) > 1e-12 {
			t.Errorf("degree record weight = %v, want 0.5", w)
		}
	})
	bucketed := OneShot(Degrees(2), publicEdges(k4())).Snapshot()
	bucketed.Range(func(g weighted.Grouped[graph.Node, int], w float64) {
		if g.Result != 1 {
			t.Errorf("bucketed degree = %d, want floor(3/2) = 1", g.Result)
		}
	})
}

func TestJDDWeightsMatchEquation3(t *testing.T) {
	// Path graph 0-1-2: directed edges (0,1) and (2,1) have (da,db) =
	// (1,2); edges (1,0) and (1,2) have (2,1). Each edge contributes
	// 1/(2+2da+2db) = 1/8 (eq. 3), so each DegPair record accumulates 2/8.
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	jdd := OneShot(JDD(), publicEdges(g)).Snapshot()
	if w := jdd.Weight(DegPair{1, 2}); math.Abs(w-2.0/8) > 1e-12 {
		t.Errorf("jdd(1,2) = %v, want 0.25", w)
	}
	if w := jdd.Weight(DegPair{2, 1}); math.Abs(w-2.0/8) > 1e-12 {
		t.Errorf("jdd(2,1) = %v, want 0.25", w)
	}
	// Total weight: 4 directed edges x 1/8.
	if tot := jdd.Norm(); math.Abs(tot-0.5) > 1e-12 {
		t.Errorf("jdd total = %v, want 0.5", tot)
	}
}

func TestTbDWeightsMatchEquation4(t *testing.T) {
	// Triangle: degrees (2,2,2). Sorted triple (2,2,2) accumulates
	// 6 * 1/(2*(4+4+4)) = 6/24 = 0.25 (eq. 4).
	tbd := OneShot(TbD(1), publicEdges(triangleGraph())).Snapshot()
	want := TbDTotalWeight(2, 2, 2)
	if w := tbd.Weight(SortTriple(2, 2, 2)); math.Abs(w-want) > 1e-12 {
		t.Errorf("tbd(2,2,2) = %v, want %v", w, want)
	}
	if tbd.Len() != 1 {
		t.Errorf("tbd records = %d, want 1", tbd.Len())
	}

	// K4: 4 triangles, all degrees 3: triple (3,3,3) accumulates
	// 4 * 6/(2*27) = 4 * 1/9.
	tbdK4 := OneShot(TbD(1), publicEdges(k4())).Snapshot()
	wantK4 := 4 * TbDTotalWeight(3, 3, 3)
	if w := tbdK4.Weight(SortTriple(3, 3, 3)); math.Abs(w-wantK4) > 1e-9 {
		t.Errorf("tbd K4 = %v, want %v", w, wantK4)
	}
}

func TestTbDNoTrianglesNoWeight(t *testing.T) {
	// A 4-cycle has no triangles: TbD must be empty.
	tbd := OneShot(TbD(1), publicEdges(c4())).Snapshot()
	if tbd.Len() != 0 {
		t.Errorf("tbd on C4 = %v, want empty", tbd)
	}
}

func TestTbDBucketing(t *testing.T) {
	// Bucketing by 2 maps degree 2 -> bucket 1.
	tbd := OneShot(TbD(2), publicEdges(triangleGraph())).Snapshot()
	if w := tbd.Weight(SortTriple(1, 1, 1)); w <= 0 {
		t.Errorf("bucketed tbd missing weight at (1,1,1): %v", tbd)
	}
}

func TestSbDWeightsMatchEquation6(t *testing.T) {
	// C4: one square, all degrees 2. Eight observations of weight
	// 1/(2*(4*1+4*1+4*1+4*1)) = 1/32 accumulate to 0.25 on (2,2,2,2).
	sbd := OneShot(SbD(), publicEdges(c4())).Snapshot()
	want := 8 * SbDWeight(2, 2, 2, 2)
	if w := sbd.Weight(SortQuad(2, 2, 2, 2)); math.Abs(w-want) > 1e-12 {
		t.Errorf("sbd(2,2,2,2) = %v, want %v", w, want)
	}
	if sbd.Len() != 1 {
		t.Errorf("sbd records = %d, want 1: %v", sbd.Len(), sbd)
	}
}

func TestSbDNoSquares(t *testing.T) {
	sbd := OneShot(SbD(), publicEdges(triangleGraph())).Snapshot()
	if sbd.Len() != 0 {
		t.Errorf("sbd on triangle = %v, want empty", sbd)
	}
}

func TestTbISignalMatchesEquation8(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"triangle": triangleGraph(),
		"k4":       k4(),
		"c4":       c4(),
	} {
		tbi := OneShot(TbI(), publicEdges(g)).Snapshot()
		want := TbISignal(g)
		got := tbi.Weight(Unit{})
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: TbI signal = %v, want %v", name, got, want)
		}
	}
}

func TestTbISignalValues(t *testing.T) {
	// Triangle: 3 * min-pairs of 1/2 = 3 * 1/2 = 1.5.
	if got := TbISignal(triangleGraph()); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("triangle signal = %v, want 1.5", got)
	}
	// C4: no triangles.
	if got := TbISignal(c4()); got != 0 {
		t.Errorf("c4 signal = %v, want 0", got)
	}
}

// TestPrivacyCostMultipliers pins the derived use counts against the
// paper's table (Section 5's accounting, Section 3.5 for the motifs): the
// multiplier is read off the tree, so the paper's numbers are the check,
// not the source. Every workload's registered Uses is this value.
func TestPrivacyCostMultipliers(t *testing.T) {
	motif := func(p Pattern) int {
		e, err := MotifCount(p)
		if err != nil {
			t.Fatal(err)
		}
		return Uses(e)
	}
	byDegree := func(p Pattern) int {
		e, err := MotifByDegree(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return Uses(e)
	}
	cases := []struct {
		name      string
		got, want int
	}{
		{"TbI", Uses(TbI()), 4},
		{"TbD", Uses(TbD(1)), 9},
		{"TbD bucketed", Uses(TbD(5)), 9},
		{"JDD", Uses(JDD()), 4},
		{"SbD", Uses(SbD()), 12},
		{"WedgeCount", Uses(WedgeCount()), 2},
		{"Paths", Uses(Paths()), 2},
		{"Degrees", Uses(Degrees(1)), 1},
		{"DegreeCCDF", Uses(DegreeCCDF()), 1},
		{"DegreeSequence", Uses(DegreeSequence()), 1},
		{"NodeCount", Uses(NodeCount()), 1},
		{"triangle motif", motif(TrianglePattern), 3},
		{"square motif", motif(SquarePattern), 4},
		{"wedge motif", motif(PathPattern3), 2},
		{"star4 by degree", byDegree(StarPattern4), 7},
		{"triangle by degree", byDegree(TrianglePattern), 6},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s uses = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestMeasurementChargesCorrectCost(t *testing.T) {
	src := budget.NewSource("edges", 10)
	edges := core.FromDataset(graph.SymmetricEdges(triangleGraph()), src)
	if _, err := core.NoisyCount(OneShot(TbI(), edges), 0.1, testRng()); err != nil {
		t.Fatal(err)
	}
	if got := src.Spent(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("TbI at eps=0.1 spent %v, want 0.4", got)
	}
}
