package core

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/weighted"
)

func ints(n int) *weighted.Dataset[int] {
	d := weighted.New[int]()
	for i := 0; i < n; i++ {
		d.Add(i, float64(i%3+1))
	}
	return d
}

func accumulated[T comparable](c *Collection[T]) bool { return c.data.Load() != nil }

// TestLinearChainStreams checks the point of the lazy plan: a chain of
// linear operators ending in an aggregation accumulates only the
// aggregated collection, and building the plan runs no user function.
func TestLinearChainStreams(t *testing.T) {
	var calls atomic.Int64
	src := FromPublic(ints(100))
	joined := Join(src, src,
		func(x int) int { return x % 10 }, func(x int) int { return x % 10 },
		func(x, y int) [2]int { calls.Add(1); return [2]int{x, y} })
	kept := Where(joined, func(p [2]int) bool { calls.Add(1); return p[0] != p[1] })
	unit := Select(kept, func([2]int) struct{} { calls.Add(1); return struct{}{} })
	if calls.Load() != 0 {
		t.Fatalf("building the plan ran %d user functions", calls.Load())
	}
	if unit.Size() <= 0 {
		t.Fatal("empty result")
	}
	if accumulated(joined) || accumulated(kept) {
		t.Errorf("intermediates were accumulated (join %v, where %v): the chain did not stream",
			accumulated(joined), accumulated(kept))
	}
	if !accumulated(unit) {
		t.Error("the aggregated collection was not memoized")
	}
	// 10 key groups of 10x10 pairs: reducer and predicate run once per
	// pair, the selector once per surviving pair.
	if got, want := calls.Load(), int64(1000+1000+900); got != want {
		t.Errorf("user functions ran %d times, want %d", got, want)
	}
	before := calls.Load()
	if unit.Size() <= 0 || calls.Load() != before {
		t.Error("a second aggregation re-evaluated the plan instead of reading the memo")
	}
}

// TestSharedCollectionEvaluatedOnce: a collection with two downstream
// operators is accumulated once and both read the memo, so its upstream
// functions run once per input record — including the TbI shape, where
// the second reader is a transformation of the first's output:
// Intersect(Select(paths), paths).
func TestSharedCollectionEvaluatedOnce(t *testing.T) {
	const n = 60
	var keyCalls, reduceCalls, selCalls atomic.Int64
	src := FromPublic(ints(n))
	groups := GroupBy(src,
		func(x int) int { keyCalls.Add(1); return x % 4 },
		func(xs []int) int { reduceCalls.Add(1); return len(xs) })
	shared := Select(groups, func(g weighted.Grouped[int, int]) int { selCalls.Add(1); return g.Key })

	left := Select(shared, func(k int) int { return k + 1 })
	right := Where(shared, func(k int) bool { return k%2 == 0 })
	if left.Size() <= 0 || right.Size() <= 0 {
		t.Fatal("empty branch")
	}
	if got := keyCalls.Load(); got != n {
		t.Errorf("GroupBy key ran %d times for %d records", got, n)
	}
	// Weights cycle 1,2,3 within each of the 4 groups: three prefixes each.
	if got, want := reduceCalls.Load(), int64(4*3); got != want {
		t.Errorf("GroupBy reducer ran %d times, want %d", got, want)
	}
	if got, want := selCalls.Load(), reduceCalls.Load(); got != want {
		t.Errorf("shared selector ran %d times for %d upstream fragments", got, want)
	}
	if !accumulated(shared) {
		t.Error("shared collection was not memoized")
	}

	// TbI shape.
	var joinCalls atomic.Int64
	paths := Join(src, src,
		func(x int) int { return x % 5 }, func(x int) int { return x % 5 },
		func(x, y int) [2]int { joinCalls.Add(1); return [2]int{x, y} })
	rotated := Select(paths, func(p [2]int) [2]int { return [2]int{p[1], p[0]} })
	both := Select(Intersect(rotated, paths), func([2]int) struct{} { return struct{}{} })
	if both.Size() <= 0 {
		t.Fatal("empty intersect")
	}
	if got, want := joinCalls.Load(), int64(5*(n/5)*(n/5)); got != want {
		t.Errorf("join reducer ran %d times, want %d (paths evaluated once)", got, want)
	}
}

// TestLazyMatchesEagerOnMixedPlan runs one plan that uses every
// operator through core and through the weighted.* wrappers.
func TestLazyMatchesEagerOnMixedPlan(t *testing.T) {
	a, b := ints(40), weighted.FromItems(3, 5, 5, 8, 41)
	half := func(x int) int { return x / 2 }
	even := func(x int) bool { return x%2 == 0 }
	fan := func(x int) []int { return []int{x, x + 1, x + 1} }
	sum := func(x, y int) int { return x + y }
	value := func(ix weighted.Indexed[int]) int { return ix.Value + ix.Index }
	size := func(g weighted.Grouped[int, int]) int { return g.Key*100 + g.Result }
	count := func(xs []int) int { return len(xs) }

	ea := weighted.Select(a, half)
	eb := weighted.SelectManySlice(b, fan)
	ec := weighted.Concat(weighted.Where(ea, even), eb)
	ed := weighted.Except(ec, weighted.Select(weighted.ShaveConst(eb, 0.25), value))
	eu := weighted.Union(ed, ea)
	ej := weighted.Join(eu, weighted.Intersect(ea, eb), half, half, sum)
	want := weighted.Select(weighted.GroupBy(ej, half, count), size)

	ca, cb := FromPublic(a), FromPublic(b)
	la := Select(ca, half)
	lb := SelectManySlice(cb, fan)
	lc := Concat(Where(la, even), lb)
	ld := Except(lc, Select(ShaveConst(lb, 0.25), value))
	lu := Union(ld, la)
	lj := Join(lu, Intersect(la, lb), half, half, sum)
	got := Select(GroupBy(lj, half, count), size).Snapshot()

	if want.Len() == 0 {
		t.Fatal("vacuous plan")
	}
	if !weighted.Equal(got, want, 1e-12) {
		t.Errorf("lazy  %v\neager %v", got, want)
	}
}

// TestRefusedNoisyCountEvaluatesNothing: the budget is charged before
// the plan runs, so an overdrawn aggregation costs no query work (and
// memoizes nothing a later, affordable query would have to trust).
func TestRefusedNoisyCountEvaluatesNothing(t *testing.T) {
	var calls atomic.Int64
	src := budget.NewSource("s", 0.3)
	c := FromDataset(ints(50), src)
	sel := func(x int) int { calls.Add(1); return x % 7 }
	q := Select(Join(c, c, sel, sel, func(x, y int) int { calls.Add(1); return x + y }), sel)

	_, err := NoisyCount(q, 0.2, newRng()) // 2 uses * 0.2 > 0.3
	var ib *budget.InsufficientBudgetError
	if !errors.As(err, &ib) {
		t.Fatalf("error = %v, want InsufficientBudgetError", err)
	}
	if _, err := NoisySum(q, 0.2, func(int) float64 { return 1 }, newRng()); !errors.As(err, &ib) {
		t.Fatalf("NoisySum error = %v, want InsufficientBudgetError", err)
	}
	if calls.Load() != 0 || accumulated(q) {
		t.Errorf("refused aggregations ran %d user functions (memoized: %v)", calls.Load(), accumulated(q))
	}
	if src.Spent() != 0 {
		t.Errorf("refused aggregations charged %v", src.Spent())
	}
	if _, err := NoisyCount(q, 0.1, newRng()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("affordable aggregation evaluated nothing")
	}
}

// TestConcurrentAggregationsShareLazyParent releases two branches of one
// unevaluated parent from concurrent goroutines (run under -race): the
// parent must be accumulated exactly once, and both releases must equal
// what a sequential run of the same seeds produces.
func TestConcurrentAggregationsShareLazyParent(t *testing.T) {
	build := func(evals *atomic.Int64) (left, right *Collection[int]) {
		src := budget.NewSource("s", 100)
		c := FromDataset(ints(200), src)
		parent := Join(c, c,
			func(x int) int { return x % 20 }, func(x int) int { return x % 20 },
			func(x, y int) int { evals.Add(1); return x*1000 + y })
		return Select(parent, func(p int) int { return p % 1000 }),
			Where(parent, func(p int) bool { return p%2 == 0 })
	}
	release := func(c *Collection[int], seed int64) map[int]float64 {
		h, err := NoisyCount(c, 0.5, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Error(err)
			return nil
		}
		return h.Materialized()
	}

	var seqEvals atomic.Int64
	l, r := build(&seqEvals)
	wantL, wantR := release(l, 1), release(r, 2)

	const rounds = 20
	for round := 0; round < rounds; round++ {
		var evals atomic.Int64
		l, r := build(&evals)
		var gotL, gotR map[int]float64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); gotL = release(l, 1) }()
		go func() { defer wg.Done(); gotR = release(r, 2) }()
		wg.Wait()
		if evals.Load() != seqEvals.Load() {
			t.Fatalf("round %d: parent reducer ran %d times concurrently, %d sequentially", round, evals.Load(), seqEvals.Load())
		}
		for name, pair := range map[string][2]map[int]float64{"left": {gotL, wantL}, "right": {gotR, wantR}} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("round %d: %s released %d records, want %d", round, name, len(got), len(want))
			}
			for k, w := range want {
				if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("round %d: %s[%d] = %v, sequential run released %v", round, name, k, g, w)
				}
			}
		}
	}
}
