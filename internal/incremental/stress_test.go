package incremental

import (
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

// Stress tests: deep and wide operator graphs driven by long random
// update sequences, checked against the reference semantics at the end
// (intermediate checks would dominate runtime).

func TestDeepChainLongRun(t *testing.T) {
	// GroupBy -> Shave -> GroupBy -> Union(with its own Intersect)
	type shaved = weighted.Indexed[weighted.Grouped[int, int]]
	key := func(x int) int { return x % 3 }
	count := func(m []int) int { return len(m) }
	index := func(s shaved) int { return s.Index }
	keys := func(m []shaved) int { return len(m) }
	rng := rand.New(rand.NewSource(100))
	in := NewInput[int]()
	grp := GroupBy(in, key, count)
	flat := GroupBy(ShaveConst(grp, 0.4), index, keys)
	both := Intersect[weighted.Grouped[int, int]](flat, grp)
	out := Collect(Union[weighted.Grouped[int, int]](flat, both))

	ref := weighted.New[int]()
	for step := 0; step < 3000; step++ {
		x := rng.Intn(7)
		cur := ref.Weight(x)
		delta := rng.Float64()*2 - 0.8
		if cur+delta < 0 {
			delta = -cur
		}
		in.Push([]Delta[int]{{x, delta}})
		ref.Add(x, delta)
	}
	// Reference evaluation of the same pipeline.
	rgrp := weighted.GroupBy(ref, key, count)
	rflat := weighted.GroupBy(weighted.ShaveConst(rgrp, 0.4), index, keys)
	want := weighted.Union(rflat, weighted.Intersect(rflat, rgrp))
	if !weighted.Equal(out.Snapshot(), want, 1e-6) {
		t.Errorf("deep chain diverged after 3000 updates:\nincremental: %v\nreference:   %v",
			out.Snapshot(), want)
	}
}

func TestDiamondTopology(t *testing.T) {
	// One input fans out to two branches that reconverge through a join:
	// exercises multiple subscriptions and reconvergent updates.
	keyL := func(s weighted.Indexed[int]) int { return s.Value % 4 }
	keyR := func(y int) int { return y % 4 }
	pair := func(s weighted.Indexed[int], y int) [2]int { return [2]int{s.Value*8 + s.Index, y} }
	rng := rand.New(rand.NewSource(101))
	in := NewInput[int]()
	out := Collect(Join(ShaveConst(in, 0.5), in, keyL, keyR, pair))

	ref := weighted.New[int]()
	for step := 0; step < 2000; step++ {
		x := rng.Intn(12)
		cur := ref.Weight(x)
		delta := rng.Float64() - 0.4
		if cur+delta < 0 {
			delta = -cur
		}
		in.Push([]Delta[int]{{x, delta}})
		ref.Add(x, delta)
	}
	want := weighted.Join(weighted.ShaveConst(ref, 0.5), ref, keyL, keyR, pair)
	if !weighted.Equal(out.Snapshot(), want, 1e-6) {
		t.Error("diamond topology diverged after 2000 updates")
	}
}

func TestManySmallBatchesMatchOneBigBatch(t *testing.T) {
	// Pushing records one at a time and all at once must agree: batching
	// is an optimization, not a semantic knob.
	build := func() (*Input[int], *Collector[weighted.Grouped[int, int]]) {
		in := NewInput[int]()
		grp := GroupBy[int, int, int](in, func(x int) int { return x % 2 }, func(m []int) int { return len(m) })
		return in, Collect[weighted.Grouped[int, int]](grp)
	}
	var big []Delta[int]
	rng := rand.New(rand.NewSource(102))
	for i := 0; i < 200; i++ {
		big = append(big, Delta[int]{rng.Intn(10), rng.Float64()})
	}
	inOne, outOne := build()
	inOne.Push(big)
	inMany, outMany := build()
	for _, d := range big {
		inMany.Push([]Delta[int]{d})
	}
	if !weighted.Equal(outOne.Snapshot(), outMany.Snapshot(), 1e-9) {
		t.Error("batched and unbatched pushes disagree")
	}
}

func TestNegativeTransientWeights(t *testing.T) {
	// A collector must tolerate transiently negative state (a retraction
	// arriving before the corresponding assertion).
	in := NewInput[int]()
	out := Collect(in)
	in.Push([]Delta[int]{{1, -2}})
	if out.Weight(1) != -2 {
		t.Errorf("negative weight = %v, want -2", out.Weight(1))
	}
	in.Push([]Delta[int]{{1, 5}})
	if out.Weight(1) != 3 {
		t.Errorf("recovered weight = %v, want 3", out.Weight(1))
	}
}
