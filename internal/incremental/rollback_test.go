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

// checkRollback drives one operator body (build returns how to apply a
// batch to the body it built over out) with a base load, then cycles of
// batch+inverse, asserting the accumulated output returns to baseline.
func checkRollback[U comparable](t *testing.T, name string, build func(out Handler[U]) func([]Delta[int])) {
	t.Helper()
	rng := rand.New(rand.NewSource(60))
	out := weighted.New[U]()
	push := build(fold(out))
	// Base load keeps weights non-negative overall.
	var base []Delta[int]
	for i := 0; i < 10; i++ {
		base = append(base, Delta[int]{i, 2 + rng.Float64()*3})
	}
	push(base)
	baseline := out.Clone()
	for cycle := 0; cycle < 200; cycle++ {
		batch := make([]Delta[int], 1+rng.Intn(3))
		for i := range batch {
			batch[i] = Delta[int]{rng.Intn(10), rng.Float64()*2 - 1}
		}
		push(batch)
		push(inverse(batch))
	}
	if !weighted.Equal(out, baseline, 1e-7) {
		t.Errorf("%s did not roll back:\nafter:    %v\nbaseline: %v", name, out, baseline)
	}
}

func TestRollbackGroupBy(t *testing.T) {
	checkRollback(t, "GroupBy", func(out Handler[weighted.Grouped[int, int]]) func([]Delta[int]) {
		return GroupBy(func(x int) int { return x % 3 }, func(m []int) int { return len(m) }, out).Apply
	})
}

func TestRollbackShave(t *testing.T) {
	checkRollback(t, "Shave", func(out Handler[weighted.Indexed[int]]) func([]Delta[int]) {
		return Shave(func(int, int) float64 { return 0.75 }, out).Apply
	})
}

func TestRollbackSelfJoin(t *testing.T) {
	checkRollback(t, "Join", func(out Handler[[2]int]) func([]Delta[int]) {
		return both(Join(
			func(x int) int { return x % 3 }, func(y int) int { return y % 3 },
			func(x, y int) [2]int { return [2]int{x, y} }, out))
	})
}
