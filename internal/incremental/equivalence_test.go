package incremental

import (
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

// Equivalence tests: drive each operator body with random sequences of
// difference batches and require that its accumulated output equals the
// reference transformation (internal/weighted) applied to the accumulated
// input — the central correctness contract of the operator bodies. (The
// stateless operators are the engine's; engine/equivalence_test.go holds
// theirs, and graph_test.go the pipelines of several bodies.)

func TestShaveEquivalence(t *testing.T) {
	// Shave state must stay non-negative for the semantics to be defined;
	// drive it with non-negative accumulations by pushing magnitudes.
	rng := rand.New(rand.NewSource(4))
	out := weighted.New[weighted.Indexed[int]]()
	in := Shave(func(int, int) float64 { return 0.6 }, fold(out))
	ref := weighted.New[int]()
	for step := 0; step < 80; step++ {
		x := rng.Intn(6)
		// Choose a delta keeping ref weight >= 0.
		cur := ref.Weight(x)
		delta := rng.Float64()*3 - 1
		if cur+delta < 0 {
			delta = -cur
		}
		batch := []Delta[int]{{x, delta}}
		in.Apply(batch)
		applyToReference(ref, batch)
		want := weighted.ShaveConst(ref, 0.6)
		if !weighted.Equal(out, want, eqTol) {
			t.Fatalf("Shave diverged at step %d:\nincremental: %v\nreference:   %v",
				step, out, want)
		}
	}
}

func TestGroupByEquivalence(t *testing.T) {
	key := func(x int) int { return x % 2 }
	reduce := func(m []int) int { return len(m) }
	rng := rand.New(rand.NewSource(5))
	out := weighted.New[weighted.Grouped[int, int]]()
	in := GroupBy(key, reduce, fold(out))
	ref := weighted.New[int]()
	for step := 0; step < 80; step++ {
		x := rng.Intn(8)
		cur := ref.Weight(x)
		delta := rng.Float64()*3 - 1
		if cur+delta < 0 {
			delta = -cur
		}
		batch := []Delta[int]{{x, delta}}
		in.Apply(batch)
		applyToReference(ref, batch)
		want := weighted.GroupBy(ref, key, reduce)
		if !weighted.Equal(out, want, eqTol) {
			t.Fatalf("GroupBy diverged at step %d:\nincremental: %v\nreference:   %v",
				step, out, want)
		}
	}
}

// TestUnionIntersectEquivalence drives Intersect with random batches on
// both sides. Union left the executor (no analysis lowers to it); its
// semantics stay pinned in wpinq/internal/weighted and core.
func TestUnionIntersectEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	outInter := weighted.New[int]()
	inter := Intersect(fold(outInter))
	refA, refB := weighted.New[int](), weighted.New[int]()
	for step := 0; step < 80; step++ {
		ba := randBatch(rng, 6, 2)
		bb := randBatch(rng, 6, 2)
		inter.ApplyLeft(ba)
		inter.ApplyRight(bb)
		applyToReference(refA, ba)
		applyToReference(refB, bb)
		if !weighted.Equal(outInter, weighted.Intersect(refA, refB), eqTol) {
			t.Fatalf("Intersect diverged at step %d:\nincremental: %v\nreference:   %v",
				step, outInter, weighted.Intersect(refA, refB))
		}
	}
}

func joinKeys(x int) int { return x % 2 }

func TestJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	out := weighted.New[[2]int]()
	j := Join(joinKeys, joinKeys,
		func(x, y int) [2]int { return [2]int{x, y} }, fold(out))
	refA, refB := weighted.New[int](), weighted.New[int]()
	for step := 0; step < 80; step++ {
		// Joins divide by group norms; keep weights non-negative as in
		// real wPINQ pipelines.
		push := func(apply func([]Delta[int]), ref *weighted.Dataset[int]) {
			x := rng.Intn(8)
			cur := ref.Weight(x)
			delta := rng.Float64()*3 - 1
			if cur+delta < 0 {
				delta = -cur
			}
			b := []Delta[int]{{x, delta}}
			apply(b)
			applyToReference(ref, b)
		}
		push(j.ApplyLeft, refA)
		push(j.ApplyRight, refB)
		want := weighted.Join(refA, refB, joinKeys, joinKeys,
			func(x, y int) [2]int { return [2]int{x, y} })
		if !weighted.Equal(out, want, eqTol) {
			t.Fatalf("Join diverged at step %d:\nincremental: %v\nreference:   %v",
				step, out, want)
		}
	}
}

func TestJoinSelfJoinEquivalence(t *testing.T) {
	// Both sides take the same batches: the length-two-paths idiom.
	type edge struct{ s, d int }
	type path struct{ a, b, c int }
	rng := rand.New(rand.NewSource(9))
	out := weighted.New[path]()
	push := both(Join(
		func(e edge) int { return e.d },
		func(e edge) int { return e.s },
		func(x, y edge) path { return path{x.s, x.d, y.d} }, fold(out)))
	ref := weighted.New[edge]()
	for step := 0; step < 60; step++ {
		e := edge{rng.Intn(5), rng.Intn(5)}
		cur := ref.Weight(e)
		delta := float64(rng.Intn(3) - 1)
		if cur+delta < 0 {
			delta = -cur
		}
		b := []Delta[edge]{{e, delta}}
		push(b)
		for _, d := range b {
			ref.Add(d.Record, d.Weight)
		}
		want := weighted.Join(ref, ref,
			func(e edge) int { return e.d },
			func(e edge) int { return e.s },
			func(x, y edge) path { return path{x.s, x.d, y.d} })
		if !weighted.Equal(out, want, eqTol) {
			t.Fatalf("self-Join diverged at step %d:\nincremental: %v\nreference:   %v",
				step, out, want)
		}
	}
}
