package incremental

import (
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

// State-size tests: each body's StateSize counts the records it indexes.
// (The paper's Section 4.3 memory claim about the triangle pipeline — a
// graph of three bodies — is pinned through the engine, in graph_test.go.)

func TestJoinStateSizeTracksInputs(t *testing.T) {
	j := Join(
		func(x int) int { return x % 4 }, func(y int) int { return y % 4 },
		func(x, y int) [2]int { return [2]int{x, y} }, func([]Delta[[2]int]) {})
	j.ApplyLeft([]Delta[int]{{1, 1}, {2, 1}, {3, 1}})
	j.ApplyRight([]Delta[int]{{5, 1}})
	if got := j.StateSize(); got != 4 {
		t.Errorf("state size = %d, want 4", got)
	}
	// Retraction shrinks state.
	j.ApplyLeft([]Delta[int]{{1, -1}})
	if got := j.StateSize(); got != 3 {
		t.Errorf("state size after retraction = %d, want 3", got)
	}
}

// TestMinMaxStateSize counts Intersect's records on both sides, the one
// element-wise body left since Union left the executor.
func TestMinMaxStateSize(t *testing.T) {
	u := Intersect(func([]Delta[string]) {})
	u.ApplyLeft([]Delta[string]{{"x", 1}, {"y", 1}})
	u.ApplyRight([]Delta[string]{{"x", 2}})
	if got := u.StateSize(); got != 3 {
		t.Errorf("intersect state = %d, want 3", got)
	}
	u.ApplyLeft([]Delta[string]{{"y", -1}})
	if got := u.StateSize(); got != 2 {
		t.Errorf("intersect state after retraction = %d, want 2", got)
	}
}

func TestGroupByAndShaveStateSize(t *testing.T) {
	g := GroupBy(func(x int) int { return x % 2 }, func(m []int) int { return len(m) }, func([]Delta[weighted.Grouped[int, int]]) {})
	s := Shave(func(int, int) float64 { return 1 }, func([]Delta[weighted.Indexed[int]]) {})
	push := func(batch []Delta[int]) {
		g.Apply(batch)
		s.Apply(batch)
	}
	push([]Delta[int]{{1, 1}, {2, 1}, {3, 1}})
	if g.StateSize() != 3 {
		t.Errorf("groupby state = %d, want 3", g.StateSize())
	}
	if s.StateSize() != 3 {
		t.Errorf("shave state = %d, want 3", s.StateSize())
	}
	push([]Delta[int]{{3, -1}})
	if g.StateSize() != 2 || s.StateSize() != 2 {
		t.Errorf("state after retraction = %d, %d; want 2, 2", g.StateSize(), s.StateSize())
	}
}

func TestStateSizeStableUnderChurn(t *testing.T) {
	// Random assert/retract churn must not leak state entries.
	rng := rand.New(rand.NewSource(50))
	j := Join(
		func(x int) int { return x % 3 }, func(y int) int { return y % 3 },
		func(x, y int) [2]int { return [2]int{x, y} }, func([]Delta[[2]int]) {})
	push := both(j)
	live := map[int]bool{}
	for step := 0; step < 2000; step++ {
		x := rng.Intn(30)
		if live[x] {
			push([]Delta[int]{{x, -1}})
			delete(live, x)
		} else {
			push([]Delta[int]{{x, 1}})
			live[x] = true
		}
	}
	if got, want := j.StateSize(), 2*len(live); got != want {
		t.Errorf("state size = %d, want %d (no leaks)", got, want)
	}
}
