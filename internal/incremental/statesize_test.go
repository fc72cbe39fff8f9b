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

// walkSize is the reference StateSize of a join: the records its key
// groups hold, counted group by group.
func (n *JoinNode[A, B, K, R]) walkSize() int {
	total := 0
	n.index.each(func(k K, _ int32) {
		a, b, _ := n.sidesOf(k)
		total += a.len() + b.len()
	})
	return total
}

// walkSize is the reference StateSize of a GroupBy.
func (n *GroupByNode[T, K, R]) walkSize() int {
	total := 0
	n.groups.each(func(_ K, g *stateMap[T]) { total += g.len() })
	return total
}

// TestStateSizeStableUnderChurn pins the join's and the GroupBy's running
// record counts against the walk over their groups, under random
// assert/retract churn pushed plainly or inside transactions: every
// push committed, or every third one aborted. No push leaks or loses an
// entry, and an Abort puts the count back with the state.
func TestStateSizeStableUnderChurn(t *testing.T) {
	for _, row := range []struct {
		name       string
		txn        bool
		abortEvery int // 0: never
	}{
		{"untracked", false, 0},
		{"Begin→push→Commit", true, 0},
		{"Begin→push→Abort", true, 3},
	} {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(50))
			j := Join(
				func(x int) int { return x % 3 }, func(y int) int { return y % 3 },
				func(x, y int) [2]int { return [2]int{x, y} }, func([]Delta[[2]int]) {})
			g := GroupBy(func(x int) int { return x % 3 }, func(m []int) int { return len(m) }, func([]Delta[weighted.Grouped[int, int]]) {})
			txn := func(op TxnOp) {
				if row.txn {
					j.Txn(op)
					g.Txn(op)
				}
			}
			live := map[int]bool{}
			aborts := 0
			for step := 0; step < 2000; step++ {
				x := rng.Intn(30)
				d := []Delta[int]{{x, 1}}
				if live[x] {
					d[0].Weight = -1
				}
				txn(TxnBegin)
				both(j)(d)
				g.Apply(d)
				if row.abortEvery > 0 && step%row.abortEvery == 0 {
					txn(TxnAbort)
					aborts++
				} else {
					txn(TxnCommit)
					if live[x] {
						delete(live, x)
					} else {
						live[x] = true
					}
				}
				if j.StateSize() != j.walkSize() || g.StateSize() != g.walkSize() {
					t.Fatalf("step %d: state sizes %d, %d; the groups hold %d, %d",
						step, j.StateSize(), g.StateSize(), j.walkSize(), g.walkSize())
				}
			}
			if row.abortEvery > 0 && aborts == 0 {
				t.Fatal("no push was aborted")
			}
			if got, want := j.StateSize(), 2*len(live); got != want {
				t.Errorf("join state size = %d, want %d (no leaks)", got, want)
			}
			if got, want := g.StateSize(), len(live); got != want {
				t.Errorf("groupby state size = %d, want %d (no leaks)", got, want)
			}
		})
	}
}
