package incremental

import (
	"math/rand"
	"testing"
)

// State-size tests validate the paper's Section 4.3 memory claim directly:
// the triangle pipelines' operator state scales with the number of
// length-two paths (sum over vertices of d(d-1)), not with the edge count.

func TestJoinStateSizeTracksInputs(t *testing.T) {
	inA := NewInput[int]()
	inB := NewInput[int]()
	j := Join(inA, inB,
		func(x int) int { return x % 4 }, func(y int) int { return y % 4 },
		func(x, y int) [2]int { return [2]int{x, y} })
	inA.Push([]Delta[int]{{1, 1}, {2, 1}, {3, 1}})
	inB.Push([]Delta[int]{{5, 1}})
	if got := j.StateSize(); got != 4 {
		t.Errorf("state size = %d, want 4", got)
	}
	// Retraction shrinks state.
	inA.Push([]Delta[int]{{1, -1}})
	if got := j.StateSize(); got != 3 {
		t.Errorf("state size after retraction = %d, want 3", got)
	}
}

func TestMinMaxStateSize(t *testing.T) {
	inA := NewInput[string]()
	inB := NewInput[string]()
	u := Union[string](inA, inB)
	inA.Push([]Delta[string]{{"x", 1}, {"y", 1}})
	inB.Push([]Delta[string]{{"x", 2}})
	if got := u.StateSize(); got != 3 {
		t.Errorf("union state = %d, want 3", got)
	}
}

func TestGroupByAndShaveStateSize(t *testing.T) {
	in := NewInput[int]()
	g := GroupBy[int, int, int](in, func(x int) int { return x % 2 }, func(m []int) int { return len(m) })
	s := ShaveConst[int](in, 1.0)
	in.Push([]Delta[int]{{1, 1}, {2, 1}, {3, 1}})
	if g.StateSize() != 3 {
		t.Errorf("groupby state = %d, want 3", g.StateSize())
	}
	if s.StateSize() != 3 {
		t.Errorf("shave state = %d, want 3", s.StateSize())
	}
	in.Push([]Delta[int]{{3, -1}})
	if g.StateSize() != 2 || s.StateSize() != 2 {
		t.Errorf("state after retraction = %d, %d; want 2, 2", g.StateSize(), s.StateSize())
	}
}

// TestTriangleStateScalesWithSumDegreeSquares reproduces the paper's
// complexity claim: on a star graph K_{1,d}, the TbI-shaped intersect
// state holds all length-two paths twice — 2*d*(d+1) records, counting
// the degenerate a = c ones TbI filters out before this point — while
// the join holds only the 2*2d directed edge records.
func TestTriangleStateScalesWithSumDegreeSquares(t *testing.T) {
	type edge struct{ s, d int }
	type path struct{ a, b, c int }
	build := func(d int) (joinSize, intersectSize int) {
		in := NewInput[edge]()
		dst, src := func(e edge) int { return e.d }, func(e edge) int { return e.s }
		j := Join(in, in, dst, src, func(x, y edge) path { return path{x.s, x.d, y.d} })
		rotated := Join(in, in, dst, src, func(x, y edge) path { return path{x.d, y.d, x.s} })
		tri := Intersect[path](rotated, j)
		var batch []Delta[edge]
		for i := 1; i <= d; i++ {
			batch = append(batch, Delta[edge]{edge{0, i}, 1}, Delta[edge]{edge{i, 0}, 1})
		}
		in.Push(batch)
		return j.StateSize(), tri.StateSize()
	}
	for _, d := range []int{5, 10, 20} {
		joinSize, triSize := build(d)
		if want := 2 * 2 * d; joinSize != want {
			t.Errorf("d=%d: join state = %d, want %d (edges, both sides)", d, joinSize, want)
		}
		if want := 2 * d * (d + 1); triSize != want {
			t.Errorf("d=%d: intersect state = %d, want %d (paths, both sides)", d, triSize, want)
		}
	}
}

func TestStateSizeStableUnderChurn(t *testing.T) {
	// Random assert/retract churn must not leak state entries.
	rng := rand.New(rand.NewSource(50))
	in := NewInput[int]()
	j := Join(in, in,
		func(x int) int { return x % 3 }, func(y int) int { return y % 3 },
		func(x, y int) [2]int { return [2]int{x, y} })
	live := map[int]bool{}
	for step := 0; step < 2000; step++ {
		x := rng.Intn(30)
		if live[x] {
			in.Push([]Delta[int]{{x, -1}})
			delete(live, x)
		} else {
			in.Push([]Delta[int]{{x, 1}})
			live[x] = true
		}
	}
	if got, want := j.StateSize(), 2*len(live); got != want {
		t.Errorf("state size = %d, want %d (no leaks)", got, want)
	}
}
