package incremental

import (
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

// Rollback properties: pushing a batch followed by its negation must leave
// every operator's output unchanged — the safety property MCMC's rejection
// path depends on (Section 4.3).

func inverse(batch []Delta[int]) []Delta[int] {
	out := make([]Delta[int], len(batch))
	for i, d := range batch {
		out[i] = Delta[int]{d.Record, -d.Weight}
	}
	return out
}

// checkRollback drives an operator with a base load, then cycles of
// batch+inverse, asserting the collected output returns to baseline.
func checkRollback[U comparable](t *testing.T, name string, build func(Source[int]) Source[U]) {
	t.Helper()
	rng := rand.New(rand.NewSource(60))
	in := NewInput[int]()
	out := Collect(build(in))
	// Base load keeps weights non-negative overall.
	var base []Delta[int]
	for i := 0; i < 10; i++ {
		base = append(base, Delta[int]{i, 2 + rng.Float64()*3})
	}
	in.Push(base)
	baseline := out.Snapshot()
	for cycle := 0; cycle < 200; cycle++ {
		batch := make([]Delta[int], 1+rng.Intn(3))
		for i := range batch {
			batch[i] = Delta[int]{rng.Intn(10), rng.Float64()*2 - 1}
		}
		in.Push(batch)
		in.Push(inverse(batch))
	}
	if !weighted.Equal(out.Snapshot(), baseline, 1e-7) {
		t.Errorf("%s did not roll back:\nafter:    %v\nbaseline: %v",
			name, out.Snapshot(), baseline)
	}
}

func TestRollbackGroupBy(t *testing.T) {
	checkRollback(t, "GroupBy", func(s Source[int]) Source[weighted.Grouped[int, int]] {
		return GroupBy(s, func(x int) int { return x % 3 }, func(m []int) int { return len(m) })
	})
}

func TestRollbackShave(t *testing.T) {
	checkRollback(t, "Shave", func(s Source[int]) Source[weighted.Indexed[int]] {
		return ShaveConst(s, 0.75)
	})
}

func TestRollbackSelfJoin(t *testing.T) {
	checkRollback(t, "Join", func(s Source[int]) Source[[2]int] {
		return Join(s, s,
			func(x int) int { return x % 3 }, func(y int) int { return y % 3 },
			func(x, y int) [2]int { return [2]int{x, y} })
	})
}

func TestRollbackUnionIntersect(t *testing.T) {
	checkRollback(t, "Union+Intersect", diamond)
}

func TestRollbackDeepTbIShape(t *testing.T) {
	// The stateful part of the operator shape MCMC rolls back through.
	checkRollback(t, "TbI-shape", tbiShape)
}

// diamond derives a second stream from s with a self-join and reconverges
// the two through Union and Intersect: every node downstream of s is
// reached along more than one path.
func diamond(s Source[int]) Source[int] {
	mixed := Join(s, s,
		func(x int) int { return x % 2 }, func(y int) int { return y % 2 },
		func(x, y int) int { return (x + y) % 10 })
	return Intersect[int](Union[int](s, mixed), s)
}

type tbiPath struct{ a, b, c int }

// tbiShape is TbI's paths join intersected with its own rotation (the
// rotation a second join, reducing to the rotated path).
func tbiShape(s Source[int]) Source[tbiPath] {
	keyA, keyB := func(x int) int { return x % 5 }, func(y int) int { return (y + 1) % 5 }
	paths := Join(s, s, keyA, keyB, func(x, y int) tbiPath { return tbiPath{x, x % 5, y} })
	rotated := Join(s, s, keyA, keyB, func(x, y int) tbiPath { return tbiPath{x % 5, y, x} })
	return Intersect[tbiPath](rotated, paths)
}
