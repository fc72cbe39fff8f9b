package incremental

import (
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

// Batching and sign robustness of a single body and of the collector.
// (The deep and wide operator graphs driven by long random update
// sequences are graph_test.go's, through the engine.)

func TestManySmallBatchesMatchOneBigBatch(t *testing.T) {
	// Pushing records one at a time and all at once must agree: batching
	// is an optimization, not a semantic knob.
	build := func() (*GroupByNode[int, int, int], *weighted.Dataset[weighted.Grouped[int, int]]) {
		out := weighted.New[weighted.Grouped[int, int]]()
		return GroupBy(func(x int) int { return x % 2 }, func(m []int) int { return len(m) }, fold(out)), out
	}
	var big []Delta[int]
	rng := rand.New(rand.NewSource(102))
	for i := 0; i < 200; i++ {
		big = append(big, Delta[int]{rng.Intn(10), rng.Float64()})
	}
	inOne, outOne := build()
	inOne.Apply(big)
	inMany, outMany := build()
	for _, d := range big {
		inMany.Apply([]Delta[int]{d})
	}
	if !weighted.Equal(outOne, outMany, 1e-9) {
		t.Error("batched and unbatched pushes disagree")
	}
}

func TestNegativeTransientWeights(t *testing.T) {
	// A collector must tolerate transiently negative state (a retraction
	// arriving before the corresponding assertion).
	in := newFeed[int]()
	out := Collect[int](in)
	in.Push([]Delta[int]{{1, -2}})
	if out.Weight(1) != -2 {
		t.Errorf("negative weight = %v, want -2", out.Weight(1))
	}
	in.Push([]Delta[int]{{1, 5}})
	if out.Weight(1) != 3 {
		t.Errorf("recovered weight = %v, want 3", out.Weight(1))
	}
}
