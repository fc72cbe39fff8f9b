package queries

import (
	"math"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
)

// twoTrianglesGraph: triangles 0-1-2 (degrees 3,3,3 given the extras) and
// 1-2-3 (degrees 3,3,2), pendant 4 on 0 — same fixture as the graph
// package's TrianglesByDegree test.
func twoTrianglesGraph() *graph.Graph {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	return g
}

func motifProfile(t *testing.T, g *graph.Graph, p Pattern, bucket int) map[DegProfile]float64 {
	t.Helper()
	e, err := MotifByDegree(p, bucket)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[DegProfile]float64)
	OneShot(e, publicEdges(g)).Snapshot().Range(func(pr DegProfile, w float64) { out[pr] = w })
	return out
}

func TestMotifByDegreeTriangleProfiles(t *testing.T) {
	// The two triangles have degree profiles (3,3,3) and (2,3,3): exactly
	// those two sorted profiles must appear, with positive weight.
	got := motifProfile(t, twoTrianglesGraph(), TrianglePattern, 1)
	wantKeys := map[DegProfile]bool{
		sortProfile([]int{3, 3, 3}): true,
		sortProfile([]int{2, 3, 3}): true,
	}
	if len(got) != len(wantKeys) {
		t.Fatalf("profiles = %v, want keys %v", got, wantKeys)
	}
	for k := range wantKeys {
		if got[k] <= 0 {
			t.Errorf("profile %v missing or non-positive: %v", k, got[k])
		}
	}
}

func TestMotifByDegreeMatchesGroundTruthKeys(t *testing.T) {
	// On a larger clustered graph, the set of released triangle profiles
	// must equal the set of degree triples in graph.TrianglesByDegree.
	g := randomClustered(t, 21)
	got := motifProfile(t, g, TrianglePattern, 1)
	truth := g.TrianglesByDegree()
	if len(got) != len(truth) {
		t.Fatalf("%d profiles, want %d", len(got), len(truth))
	}
	for tri := range truth {
		key := sortProfile(tri[:])
		if got[key] <= 0 {
			t.Errorf("triple %v missing from MotifByDegree", tri)
		}
	}
}

func TestMotifByDegreeBucketing(t *testing.T) {
	got := motifProfile(t, twoTrianglesGraph(), TrianglePattern, 2)
	// Degrees 2,3 bucket to 1; every profile becomes (1,1,1).
	if len(got) != 1 {
		t.Fatalf("bucketed profiles = %v, want single (1,1,1)", got)
	}
	if got[sortProfile([]int{1, 1, 1})] <= 0 {
		t.Errorf("bucketed profile missing: %v", got)
	}
}

func TestMotifByDegreeSquare(t *testing.T) {
	got := motifProfile(t, c4(), SquarePattern, 1)
	if len(got) != 1 || got[sortProfile([]int{2, 2, 2, 2})] <= 0 {
		t.Errorf("square profiles = %v, want (2,2,2,2) only", got)
	}
	if prof := motifProfile(t, triangleGraph(), SquarePattern, 1); len(prof) != 0 {
		t.Errorf("square profile on triangle = %v, want empty", prof)
	}
}

func TestMotifByDegreeUsesAccounting(t *testing.T) {
	// One use per pattern edge for the embedding plan plus one per pattern
	// vertex for its degree join: 3 + 3 on the triangle.
	e, err := MotifByDegree(TrianglePattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := Uses(e); got != 6 {
		t.Fatalf("Uses(triangle by degree) = %d, want 6", got)
	}
	src := budget.NewSource("edges", 1000)
	edges := core.FromDataset(graph.SymmetricEdges(k4()), src)
	if got := OneShot(e, edges).Uses().Count(src); got != 6 {
		t.Errorf("plan uses = %d, want 6", got)
	}
}

func TestMotifByDegreeRejectsInvalid(t *testing.T) {
	if _, err := MotifByDegree(Pattern{K: 2}, 1); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestMotifByDegreePipelineMatchesQuery(t *testing.T) {
	for _, p := range []Pattern{TrianglePattern, PathPattern3} {
		e, err := MotifByDegree(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		checkPipelineMatchesQuery(t, allLayouts, "MotifByDegree:"+p.fragmentKey(), e, 5)
	}
}

func TestSortProfile(t *testing.T) {
	p := sortProfile([]int{5, 2, 9})
	if p[0] != 2 || p[1] != 5 || p[2] != 9 {
		t.Errorf("sorted = %v", p)
	}
	for i := 3; i < MaxPatternNodes; i++ {
		if p[i] != -1 {
			t.Errorf("padding slot %d = %d, want -1", i, p[i])
		}
	}
	if math.Signbit(float64(p[0])) {
		t.Error("unexpected negative leading degree")
	}
}
