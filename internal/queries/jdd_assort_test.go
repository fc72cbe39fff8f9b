package queries

import (
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/postprocess"
)

// End-to-end: a DP JDD measurement constrains assortativity (paper
// Sections 1.2 and 3.2). With a reasonable eps the estimate recovered from
// noisy counts lands near the true coefficient.
func TestAssortativityFromDPJDD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := graph.Collaboration(graph.CollaborationConfig{
		Authors:     600,
		Papers:      560,
		MeanAuthors: 3.0,
		MaxAuthors:  10,
		PrefAttach:  0.55,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	trueR := g.Assortativity()
	if trueR < 0.05 {
		t.Fatalf("fixture graph not assortative: r = %v", trueR)
	}

	random := g.Clone()
	graph.Rewire(random, 25*random.NumEdges(), rng)

	estimate := func(target *graph.Graph, eps float64) float64 {
		src := budget.NewSource("edges", 4*eps)
		edges := core.FromDataset(graph.SymmetricEdges(target), src)
		hist, err := core.NoisyCount(OneShot(JDD(), edges), eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts := JDDCountsThresholded(hist.Materialized(), 4/eps)
		return postprocess.AssortativityFromCounts(counts)
	}
	// The DP estimate is coarse but must separate the assortative graph
	// from its degree-matched randomization (averaged over repeats to
	// stabilize the randomized mechanism).
	const reps = 5
	var realSum, randSum float64
	for i := 0; i < reps; i++ {
		realSum += estimate(g, 2.0)
		randSum += estimate(random, 2.0)
	}
	if realSum/reps <= randSum/reps {
		t.Errorf("mean estimated r: real %v <= random %v; want separation",
			realSum/reps, randSum/reps)
	}
	// And the noiseless pipeline recovers r almost exactly.
	exact := OneShot(JDD(), publicEdges(g)).Snapshot()
	exactCounts := make(map[DegPair]float64)
	exact.Range(func(p DegPair, w float64) { exactCounts[p] = w })
	exactR := postprocess.AssortativityFromCounts(JDDCounts(exactCounts))
	if math.Abs(exactR-trueR) > 1e-6 {
		t.Errorf("noiseless JDD r = %v, true r = %v", exactR, trueR)
	}
}

func TestJDDCountsInvertsWeights(t *testing.T) {
	released := map[DegPair]float64{
		{DA: 2, DB: 3}: 5 * JDDWeight(2, 3),
	}
	counts := JDDCounts(released)
	if got := counts[[2]int{2, 3}]; math.Abs(got-5) > 1e-9 {
		t.Errorf("recovered count = %v, want 5", got)
	}
}
