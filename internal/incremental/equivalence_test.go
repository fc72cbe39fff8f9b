package incremental

import (
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

// Equivalence tests: drive each stateful operator with random sequences
// of difference batches and require that its collected output equals the
// reference transformation (internal/weighted) applied to the accumulated
// input — the central correctness contract of the operator bodies. (The
// stateless operators are the engine's; engine/equivalence_test.go holds
// theirs.)

const eqTol = 1e-8

// randBatch produces a batch of nb random differences over records [0, dom).
func randBatch(rng *rand.Rand, dom, nb int) []Delta[int] {
	batch := make([]Delta[int], nb)
	for i := range batch {
		w := rng.NormFloat64() * 2
		if rng.Intn(4) == 0 {
			w = float64(rng.Intn(5) - 2) // exact integers, incl. 0
		}
		batch[i] = Delta[int]{rng.Intn(dom), w}
	}
	return batch
}

// applyToReference mirrors a batch into a reference dataset.
func applyToReference(ref *weighted.Dataset[int], batch []Delta[int]) {
	for _, d := range batch {
		ref.Add(d.Record, d.Weight)
	}
}

func TestShaveEquivalence(t *testing.T) {
	// Shave state must stay non-negative for the semantics to be defined;
	// drive it with non-negative accumulations by pushing magnitudes.
	rng := rand.New(rand.NewSource(4))
	in := NewInput[int]()
	out := Collect(ShaveConst(in, 0.6))
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
		in.Push(batch)
		applyToReference(ref, batch)
		want := weighted.ShaveConst(ref, 0.6)
		if !weighted.Equal(out.Snapshot(), want, eqTol) {
			t.Fatalf("Shave diverged at step %d:\nincremental: %v\nreference:   %v",
				step, out.Snapshot(), want)
		}
	}
}

func TestGroupByEquivalence(t *testing.T) {
	key := func(x int) int { return x % 2 }
	reduce := func(m []int) int { return len(m) }
	rng := rand.New(rand.NewSource(5))
	in := NewInput[int]()
	out := Collect(GroupBy(in, key, reduce))
	ref := weighted.New[int]()
	for step := 0; step < 80; step++ {
		x := rng.Intn(8)
		cur := ref.Weight(x)
		delta := rng.Float64()*3 - 1
		if cur+delta < 0 {
			delta = -cur
		}
		batch := []Delta[int]{{x, delta}}
		in.Push(batch)
		applyToReference(ref, batch)
		want := weighted.GroupBy(ref, key, reduce)
		if !weighted.Equal(out.Snapshot(), want, eqTol) {
			t.Fatalf("GroupBy diverged at step %d:\nincremental: %v\nreference:   %v",
				step, out.Snapshot(), want)
		}
	}
}

func TestUnionIntersectEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inA := NewInput[int]()
	inB := NewInput[int]()
	outUnion := Collect(Union[int](inA, inB))
	outInter := Collect(Intersect[int](inA, inB))
	refA, refB := weighted.New[int](), weighted.New[int]()
	for step := 0; step < 80; step++ {
		ba := randBatch(rng, 6, 2)
		bb := randBatch(rng, 6, 2)
		inA.Push(ba)
		inB.Push(bb)
		applyToReference(refA, ba)
		applyToReference(refB, bb)
		if !weighted.Equal(outUnion.Snapshot(), weighted.Union(refA, refB), eqTol) {
			t.Fatalf("Union diverged at step %d:\nincremental: %v\nreference:   %v",
				step, outUnion.Snapshot(), weighted.Union(refA, refB))
		}
		if !weighted.Equal(outInter.Snapshot(), weighted.Intersect(refA, refB), eqTol) {
			t.Fatalf("Intersect diverged at step %d:\nincremental: %v\nreference:   %v",
				step, outInter.Snapshot(), weighted.Intersect(refA, refB))
		}
	}
}

func joinKeys(x int) int { return x % 2 }

func TestJoinEquivalence(t *testing.T) {
	for _, fastPath := range []bool{true, false} {
		rng := rand.New(rand.NewSource(8))
		inA := NewInput[int]()
		inB := NewInput[int]()
		j := Join(inA, inB, joinKeys, joinKeys,
			func(x, y int) [2]int { return [2]int{x, y} })
		j.SetFastPath(fastPath)
		out := Collect[[2]int](j)
		refA, refB := weighted.New[int](), weighted.New[int]()
		for step := 0; step < 80; step++ {
			// Joins divide by group norms; keep weights non-negative as in
			// real wPINQ pipelines.
			push := func(in *Input[int], ref *weighted.Dataset[int]) {
				x := rng.Intn(8)
				cur := ref.Weight(x)
				delta := rng.Float64()*3 - 1
				if cur+delta < 0 {
					delta = -cur
				}
				b := []Delta[int]{{x, delta}}
				in.Push(b)
				applyToReference(ref, b)
			}
			push(inA, refA)
			push(inB, refB)
			want := weighted.Join(refA, refB, joinKeys, joinKeys,
				func(x, y int) [2]int { return [2]int{x, y} })
			if !weighted.Equal(out.Snapshot(), want, eqTol) {
				t.Fatalf("Join(fastPath=%v) diverged at step %d:\nincremental: %v\nreference:   %v",
					fastPath, step, out.Snapshot(), want)
			}
		}
	}
}

func TestJoinSelfJoinEquivalence(t *testing.T) {
	// Both sides subscribed to the same input: the length-two-paths idiom.
	type edge struct{ s, d int }
	type path struct{ a, b, c int }
	rng := rand.New(rand.NewSource(9))
	in := NewInput[edge]()
	j := Join[edge, edge, int, path](in, in,
		func(e edge) int { return e.d },
		func(e edge) int { return e.s },
		func(x, y edge) path { return path{x.s, x.d, y.d} })
	out := Collect[path](j)
	ref := weighted.New[edge]()
	for step := 0; step < 60; step++ {
		e := edge{rng.Intn(5), rng.Intn(5)}
		cur := ref.Weight(e)
		delta := float64(rng.Intn(3) - 1)
		if cur+delta < 0 {
			delta = -cur
		}
		b := []Delta[edge]{{e, delta}}
		in.Push(b)
		for _, d := range b {
			ref.Add(d.Record, d.Weight)
		}
		want := weighted.Join(ref, ref,
			func(e edge) int { return e.d },
			func(e edge) int { return e.s },
			func(x, y edge) path { return path{x.s, x.d, y.d} })
		if !weighted.Equal(out.Snapshot(), want, eqTol) {
			t.Fatalf("self-Join diverged at step %d:\nincremental: %v\nreference:   %v",
				step, out.Snapshot(), want)
		}
	}
}

func TestDeepPipelineEquivalence(t *testing.T) {
	// Chain GroupBy -> Shave -> GroupBy: differences propagate through
	// heterogeneous stateful operators.
	type shaved = weighted.Indexed[weighted.Grouped[int, int]]
	key := func(x int) int { return x % 2 }
	count := func(m []int) int { return len(m) }
	index := func(s shaved) int { return s.Index }
	keys := func(m []shaved) int { return len(m) }
	rng := rand.New(rand.NewSource(10))
	in := NewInput[int]()
	out := Collect(GroupBy(ShaveConst(GroupBy(in, key, count), 0.25), index, keys))

	ref := weighted.New[int]()
	for step := 0; step < 60; step++ {
		x := rng.Intn(5)
		cur := ref.Weight(x)
		delta := rng.Float64() - 0.3
		if cur+delta < 0 {
			delta = -cur
		}
		b := []Delta[int]{{x, delta}}
		in.Push(b)
		applyToReference(ref, b)
		want := weighted.GroupBy(weighted.ShaveConst(weighted.GroupBy(ref, key, count), 0.25), index, keys)
		if !weighted.Equal(out.Snapshot(), want, eqTol) {
			t.Fatalf("deep pipeline diverged at step %d", step)
		}
	}
}
