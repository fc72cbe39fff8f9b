package queries

import (
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/graph"
)

// Inversion tests: on arbitrary graphs, dividing the exact (noiseless)
// query outputs by the closed-form per-record weights must recover exact
// combinatorial ground truth. This validates the weight formulas (eqs. 3,
// 4) end-to-end through the full operator pipelines, not just on the toy
// fixtures.

func randomClustered(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.HolmeKim(60, 4, 0.7, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTbDInversionRecoversTriangleCounts(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomClustered(t, seed)
		truth := g.TrianglesByDegree()
		tbd := OneShot(TbD(1), publicEdges(g)).Snapshot()

		// Every measured triple must invert to an integer count matching
		// the ground truth...
		got := make(map[[3]int]int64)
		tbd.Range(func(tr DegTriple, w float64) {
			count := w / TbDTotalWeight(tr[0], tr[1], tr[2])
			rounded := math.Round(count)
			if math.Abs(count-rounded) > 1e-6 {
				t.Errorf("seed %d: triple %v inverts to non-integer %v", seed, tr, count)
			}
			got[[3]int(tr)] = int64(rounded)
		})
		if len(got) != len(truth) {
			t.Fatalf("seed %d: %d measured triples, want %d", seed, len(got), len(truth))
		}
		for tr, want := range truth {
			if got[tr] != want {
				t.Errorf("seed %d: triple %v count = %d, want %d", seed, tr, got[tr], want)
			}
		}
	}
}

func TestJDDInversionRecoversEdgeCounts(t *testing.T) {
	g := randomClustered(t, 5)
	// Ground truth: directed edge counts per (da, db).
	truth := make(map[[2]int]float64)
	for _, e := range g.EdgeList() {
		da, db := g.Degree(e.Src), g.Degree(e.Dst)
		truth[[2]int{da, db}]++
		truth[[2]int{db, da}]++
	}
	jdd := OneShot(JDD(), publicEdges(g)).Snapshot()
	released := make(map[DegPair]float64)
	jdd.Range(func(p DegPair, w float64) { released[p] = w })
	counts := JDDCounts(released)
	if len(counts) != len(truth) {
		t.Fatalf("%d recovered pairs, want %d", len(counts), len(truth))
	}
	for pair, want := range truth {
		if got := counts[pair]; math.Abs(got-want) > 1e-6 {
			t.Errorf("pair %v count = %v, want %v", pair, got, want)
		}
	}
}

func TestTbIInversionMatchesSignalOnRandomGraphs(t *testing.T) {
	for seed := int64(7); seed <= 9; seed++ {
		g := randomClustered(t, seed)
		w := OneShot(TbI(), publicEdges(g)).Snapshot().Weight(Unit{})
		want := TbISignal(g)
		if math.Abs(w-want) > 1e-6 {
			t.Errorf("seed %d: TbI weight = %v, want eq.8 signal %v", seed, w, want)
		}
	}
}

func TestNodesInversionRecoversNodeCount(t *testing.T) {
	g := randomClustered(t, 11)
	w := OneShot(NodeCount(), publicEdges(g)).Snapshot().Weight(Unit{})
	if got := 2 * w; math.Abs(got-float64(g.NumNodes())) > 1e-9 {
		t.Errorf("2 * node-count weight = %v, want %d", got, g.NumNodes())
	}
}

func TestDegreeSequenceInversionMatchesGraph(t *testing.T) {
	g := randomClustered(t, 13)
	seq := OneShot(DegreeSequence(), publicEdges(g)).Snapshot()
	truth := g.DegreeSequence()
	for i, d := range truth {
		if got := seq.Weight(i); math.Abs(got-float64(d)) > 1e-9 {
			t.Errorf("seq[%d] = %v, want %d", i, got, d)
		}
	}
	if got := seq.Weight(len(truth)); got != 0 {
		t.Errorf("seq past end = %v, want 0", got)
	}
}
