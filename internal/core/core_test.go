package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/weighted"
)

func newRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func protected(t *testing.T, eps float64, pairs ...weighted.Pair[string]) (*Collection[string], *budget.Source) {
	t.Helper()
	src := budget.NewSource("test", eps)
	return FromDataset(weighted.FromPairs(pairs...), src), src
}

func TestFromDatasetClones(t *testing.T) {
	d := weighted.FromItems("a")
	src := budget.NewSource("s", 1)
	c := FromDataset(d, src)
	d.Add("a", 100)
	if c.Size() != 1 {
		t.Error("mutating the input dataset leaked into the collection")
	}
}

func TestUseCountsThroughPlan(t *testing.T) {
	// A self-join uses its source twice; joining with another source adds.
	sa := budget.NewSource("a", 10)
	sb := budget.NewSource("b", 10)
	a := FromDataset(weighted.FromItems(1, 2, 3), sa)
	b := FromDataset(weighted.FromItems(2, 3, 4), sb)

	selfJoin := Join(a, a,
		func(x int) int { return x }, func(x int) int { return x },
		func(x, y int) int { return x })
	if got := selfJoin.Uses().Count(sa); got != 2 {
		t.Errorf("self-join use count = %d, want 2", got)
	}

	mixed := Join(selfJoin, b,
		func(x int) int { return x }, func(x int) int { return x },
		func(x, y int) int { return x })
	if got := mixed.Uses().Count(sa); got != 2 {
		t.Errorf("mixed plan count(a) = %d, want 2", got)
	}
	if got := mixed.Uses().Count(sb); got != 1 {
		t.Errorf("mixed plan count(b) = %d, want 1", got)
	}
}

func TestUnaryOpsPreserveUses(t *testing.T) {
	src := budget.NewSource("s", 10)
	c := FromDataset(weighted.FromItems(1, 2, 3, 4), src)
	c2 := Where(Select(c, func(x int) int { return x * 2 }), func(x int) bool { return x > 2 })
	if got := c2.Uses().Count(src); got != 1 {
		t.Errorf("use count after unary chain = %d, want 1", got)
	}
}

func TestNoisyCountChargesBudget(t *testing.T) {
	c, src := protected(t, 1.0, weighted.Pair[string]{Record: "x", Weight: 2.0})
	if _, err := NoisyCount(c, 0.4, newRng()); err != nil {
		t.Fatal(err)
	}
	if got := src.Spent(); got != 0.4 {
		t.Errorf("spent = %v, want 0.4", got)
	}
	// Second aggregation composes sequentially.
	if _, err := NoisyCount(c, 0.6, newRng()); err != nil {
		t.Fatal(err)
	}
	if got := src.Spent(); got != 1.0 {
		t.Errorf("spent = %v, want 1.0", got)
	}
	// Budget exhausted: further aggregation fails.
	if _, err := NoisyCount(c, 0.1, newRng()); err == nil {
		t.Error("aggregation over budget should fail")
	}
}

func TestNoisyCountChargesMultiplicity(t *testing.T) {
	src := budget.NewSource("edges", 10)
	a := FromDataset(weighted.FromItems(1, 2), src)
	j := Join(a, a, func(x int) int { return 0 }, func(x int) int { return 0 },
		func(x, y int) int { return x + y })
	if _, err := NoisyCount(j, 0.5, newRng()); err != nil {
		t.Fatal(err)
	}
	if got := src.Spent(); got != 1.0 {
		t.Errorf("self-join NoisyCount spent = %v, want 1.0 (2 uses * 0.5)", got)
	}
}

func TestNoisyCountRejectsBadEpsilon(t *testing.T) {
	c, _ := protected(t, 1, weighted.Pair[string]{Record: "x", Weight: 1})
	for _, eps := range []float64{0, -1, math.NaN()} {
		if _, err := NoisyCount(c, eps, newRng()); err == nil {
			t.Errorf("NoisyCount(eps=%v) should fail", eps)
		}
	}
}

func TestNoisyCountFailedChargeReleasesNothing(t *testing.T) {
	c, src := protected(t, 0.1, weighted.Pair[string]{Record: "x", Weight: 1})
	if _, err := NoisyCount(c, 0.5, newRng()); err == nil {
		t.Fatal("expected budget failure")
	}
	var ib *budget.InsufficientBudgetError
	_, err := NoisyCount(c, 0.5, newRng())
	if !errors.As(err, &ib) {
		t.Fatalf("error = %v, want InsufficientBudgetError", err)
	}
	if src.Spent() != 0 {
		t.Errorf("failed aggregation charged %v", src.Spent())
	}
}

func TestHistogramCentersOnTrueWeights(t *testing.T) {
	// Mean of many independent releases approaches the true weight.
	rng := newRng()
	src := budget.NewSource("u", 1e9)
	data := weighted.FromPairs(weighted.Pair[string]{Record: "x", Weight: 5.0})
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		c := FromDataset(data, src)
		h, err := NoisyCount(c, 1.0, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += h.Get("x")
	}
	if mean := sum / n; math.Abs(mean-5.0) > 0.05 {
		t.Errorf("mean release = %v, want ~5.0", mean)
	}
}

func TestHistogramMemoizesUnseenRecords(t *testing.T) {
	c, _ := protected(t, 10, weighted.Pair[string]{Record: "x", Weight: 1})
	h, err := NoisyCount(c, 0.1, newRng())
	if err != nil {
		t.Fatal(err)
	}
	first := h.Get("never-seen")
	second := h.Get("never-seen")
	if first != second {
		t.Errorf("unseen record noise is not a function of the record: %v vs %v", first, second)
	}
	if first == 0 {
		t.Error("unseen record should receive fresh noise, got exactly 0")
	}
	// The value is derived, not stored: the release is what NoisyCount
	// fixed, whatever has been asked since.
	if _, ok := h.Materialized()["never-seen"]; ok {
		t.Error("Get recorded a derived value in the release")
	}
	if h.Len() != 1 || len(h.Materialized()) != 1 {
		t.Errorf("release has %d records (Len %d) after two Gets, want 1", len(h.Materialized()), h.Len())
	}
}

func TestHistogramEpsilon(t *testing.T) {
	c, _ := protected(t, 10, weighted.Pair[string]{Record: "x", Weight: 1})
	h, err := NoisyCount(c, 0.25, newRng())
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Epsilon(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Epsilon = %v, want 0.25", got)
	}
}

func TestPublicCollectionFreeAggregation(t *testing.T) {
	c := FromPublic(weighted.FromItems("a", "b"))
	for i := 0; i < 100; i++ {
		if _, err := NoisyCount(c, 1.0, newRng()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotPanicsOnProtected(t *testing.T) {
	c, _ := protected(t, 1, weighted.Pair[string]{Record: "x", Weight: 1})
	defer func() {
		if recover() == nil {
			t.Error("Snapshot on protected collection should panic")
		}
	}()
	c.Snapshot()
}

func TestSnapshotOnPublic(t *testing.T) {
	c := FromPublic(weighted.FromItems("a"))
	s := c.Snapshot()
	if s.Weight("a") != 1 {
		t.Errorf("snapshot weight = %v, want 1", s.Weight("a"))
	}
	s.Add("a", 5)
	if c.Size() != 1 {
		t.Error("snapshot should be a copy")
	}
}

func TestNoisySum(t *testing.T) {
	rng := newRng()
	src := budget.NewSource("u", 1e9)
	data := weighted.FromPairs(
		weighted.Pair[string]{Record: "a", Weight: 2.0},
		weighted.Pair[string]{Record: "b", Weight: 3.0},
	)
	// f(a)=1, f(b)=-1 -> true sum = 2 - 3 = -1.
	f := func(x string) float64 {
		if x == "a" {
			return 1
		}
		return -1
	}
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		c := FromDataset(data, src)
		v, err := NoisySum(c, 1.0, f, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean+1.0) > 0.05 {
		t.Errorf("mean NoisySum = %v, want ~-1.0", mean)
	}
}

func TestNoisySumClampsValuation(t *testing.T) {
	rng := newRng()
	src := budget.NewSource("u", 1e9)
	data := weighted.FromPairs(weighted.Pair[string]{Record: "a", Weight: 1.0})
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		c := FromDataset(data, src)
		v, err := NoisySum(c, 1.0, func(string) float64 { return 1000 }, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	// Clamped to 1.0 per unit weight.
	if mean := sum / n; math.Abs(mean-1.0) > 0.05 {
		t.Errorf("mean clamped NoisySum = %v, want ~1.0", mean)
	}
}

func TestExponentialMechanismPrefersHighScore(t *testing.T) {
	rng := newRng()
	src := budget.NewSource("u", 1e9)
	data := weighted.FromItems("x")
	counts := map[string]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		c := FromDataset(data, src)
		choice, err := ExponentialMechanism(c, 2.0,
			[]string{"good", "bad"},
			func(r string, d *weighted.Dataset[string]) float64 {
				if r == "good" {
					return 5
				}
				return 0
			}, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[choice]++
	}
	if counts["good"] < n*9/10 {
		t.Errorf("good chosen %d/%d times, want overwhelming majority", counts["good"], n)
	}
	if counts["bad"] == 0 {
		t.Error("bad should still occasionally win (randomized mechanism)")
	}
}

func TestExponentialMechanismNoCandidates(t *testing.T) {
	c := FromPublic(weighted.FromItems("x"))
	_, err := ExponentialMechanism(c, 1.0, nil,
		func(string, *weighted.Dataset[string]) float64 { return 0 }, newRng())
	if err == nil {
		t.Error("empty candidate set should fail")
	}
}

func TestEndToEndPipelinePaperWeights(t *testing.T) {
	// Degree computation pipeline from Section 2.5: GroupBy on unit-weight
	// edges yields (vertex, degree) pairs at weight 0.5.
	type edge struct{ src, dst int }
	src := budget.NewSource("edges", 10)
	edges := FromDataset(weighted.FromItems(
		edge{1, 2}, edge{1, 3}, edge{1, 4}, edge{2, 3},
	), src)
	degrees := GroupBy(edges,
		func(e edge) int { return e.src },
		func(es []edge) int { return len(es) })
	snap := degrees.snapshot()
	if w := snap.Weight(weighted.Grouped[int, int]{Key: 1, Result: 3}); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("degree record weight = %v, want 0.5", w)
	}
	if w := snap.Weight(weighted.Grouped[int, int]{Key: 2, Result: 1}); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("degree record weight = %v, want 0.5", w)
	}
}
