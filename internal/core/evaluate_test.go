package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"wpinq/internal/budget"
	"wpinq/internal/weighted"
)

// evaluatePlans builds four queries over one protected source: linear
// chains, a self-join, a GroupBy and a join of two derived collections,
// so that Evaluate computes shared and non-linear operators. Each query
// is returned both as an Evaluable and as its release.
func evaluatePlans(src *budget.Source) ([]Evaluable, []func(float64, *rand.Rand) (any, error)) {
	d := weighted.New[int]()
	for i := range 300 {
		d.Add(i, 1+float64(i%7)/3)
	}
	c := FromDataset(d, src)
	id := func(x int) int { return x }
	mod := Select(c, func(x int) int { return x % 17 })
	self := Join(c, c, func(x int) int { return x % 23 }, func(x int) int { return x % 23 }, func(a, b int) [2]int { return [2]int{a % 5, b % 3} })
	groups := GroupBy(mod, id, func(xs []int) int { return len(xs) })
	both := Join(Where(mod, func(x int) bool { return x > 3 }), Select(c, func(x int) int { return x % 13 }), id, id, func(a, b int) int { return a + b })
	return []Evaluable{mod, self, groups, both},
		[]func(float64, *rand.Rand) (any, error){releaser(mod), releaser(self), releaser(groups), releaser(both)}
}

// releaser is NoisyCount of c, with the histogram's type erased.
func releaser[T comparable](c *Collection[T]) func(float64, *rand.Rand) (any, error) {
	return func(eps float64, rng *rand.Rand) (any, error) { return NoisyCount(c, eps, rng) }
}

// TestEvaluateChargesNothing pins what Evaluate leaves to the release.
// Over a source with no budget left it succeeds and charges nothing, and
// every aggregation afterwards fails with the error it fails with
// unevaluated. Over a funded source, aggregating afterwards charges and
// returns exactly what aggregating unevaluated does: the same released
// bits, the same salt, the same spend, and the rng left at the same draw.
func TestEvaluateChargesNothing(t *testing.T) {
	const eps = 0.5
	spentSrc := budget.NewSource("spent", 0)
	qs, release := evaluatePlans(spentSrc)
	Evaluate(qs...)
	if got := spentSrc.Spent(); got != 0 {
		t.Errorf("Evaluate charged %g", got)
	}
	_, cold := evaluatePlans(budget.NewSource("spent", 0))
	for i := range release {
		_, err := release[i](eps, newRng())
		_, want := cold[i](eps, newRng())
		var insufficient *budget.InsufficientBudgetError
		if !errors.As(err, &insufficient) || err.Error() != want.Error() {
			t.Errorf("query %d: aggregating after Evaluate over a spent source: %v, want %v", i, err, want)
		}
	}

	hot := budget.NewSource("funded", 100)
	qs, release = evaluatePlans(hot)
	Evaluate(qs...)
	if got := hot.Spent(); got != 0 {
		t.Errorf("Evaluate charged %g", got)
	}
	coldSrc := budget.NewSource("funded", 100)
	_, cold = evaluatePlans(coldSrc)
	rng, coldRng := newRng(), newRng()
	for i := range release {
		got, err := release[i](eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold[i](eps, coldRng)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d released %+v after Evaluate, want %+v", i, got, want)
		}
	}
	if hot.Spent() != coldSrc.Spent() {
		t.Errorf("spent %g after Evaluate, %g without", hot.Spent(), coldSrc.Spent())
	}
	if a, b := rng.Uint64(), coldRng.Uint64(); a != b {
		t.Errorf("the rng's next draw is %x after Evaluate, %x without", a, b)
	}
}

// TestEvaluatePanicReachesCaller makes a query's selector panic. The panic
// is recovered on the goroutine that called Evaluate (a panic left on a
// worker would end the test binary), it is the panic a sequential pass
// raises first, and Evaluate returns only after every query it handed out
// has finished: no worker is left running.
func TestEvaluatePanicReachesCaller(t *testing.T) {
	src := budget.NewSource("s", 1)
	c := FromDataset(weighted.FromItems(1, 2, 3), src)
	var slowDone atomic.Bool
	slow := Select(c, func(x int) int {
		time.Sleep(20 * time.Millisecond)
		slowDone.Store(true)
		return x
	})
	slowPanic := Select(c, func(x int) int {
		time.Sleep(20 * time.Millisecond)
		panic("first")
	})
	fastPanic := Select(c, func(int) int { panic("second") })
	tail := Select(c, func(x int) int { return x })

	recovered := func(qs ...Evaluable) (r any) {
		defer func() { r = recover() }()
		Evaluate(qs...)
		return nil
	}
	if r := recovered(slow, fastPanic, tail); r != "second" {
		t.Errorf("recovered %v, want the selector's panic", r)
	}
	if !slowDone.Load() {
		t.Error("Evaluate returned while a query it had handed out was still running")
	}
	if r := recovered(slowPanic, fastPanic); r != "first" {
		t.Errorf("recovered %v, want the first query's panic, which a sequential pass raises", r)
	}
	if src.Spent() != 0 {
		t.Errorf("a panicking Evaluate charged %g", src.Spent())
	}
}
