package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/weighted"
)

// TestHistogramConcurrentGet hammers one released Histogram from many
// goroutines (run under -race in CI). Get writes nothing — an unseen
// record's noise is derived on every access — so the histogram carries no
// lock, and this test is the pin: every goroutine must see the same value
// for the same record, and the race detector must see no write. The
// release boundary is where a curator service serves many analysts, and a
// fit its concurrent chains, from one histogram.
func TestHistogramConcurrentGet(t *testing.T) {
	d := weighted.New[int]()
	for i := 0; i < 8; i++ {
		d.Add(i, float64(i+1))
	}
	src := budget.NewSource("conc", 1)
	h, err := NoisyCount(FromDataset(d, src), 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 16
		domain     = 200 // mostly unseen records: most Gets derive noise
		rounds     = 50
	)
	seen := make([]map[int]float64, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			mine := make(map[int]float64, domain)
			rng := rand.New(rand.NewSource(int64(gi)))
			for r := 0; r < rounds; r++ {
				x := rng.Intn(domain)
				v := h.Get(x)
				if prev, ok := mine[x]; ok && prev != v {
					t.Errorf("goroutine %d: record %d changed %v -> %v", gi, x, prev, v)
					return
				}
				mine[x] = v
			}
			seen[gi] = mine
		}(gi)
	}
	wg.Wait()

	// Cross-goroutine consistency: everyone observed the value the
	// histogram reports now.
	for gi, mine := range seen {
		for x, v := range mine {
			if got := h.Get(x); got != v {
				t.Fatalf("goroutine %d saw %v for record %d, histogram now says %v", gi, v, x, got)
			}
		}
	}
}

// TestConcurrentBudgetOverdraw races many NoisyCounts against a source
// whose budget affords exactly three of them: exactly three must
// succeed — never more (overdraw) and never fewer (lost budget from a
// racy rollback) — and every failure must be the structured
// InsufficientBudgetError.
func TestConcurrentBudgetOverdraw(t *testing.T) {
	const (
		eps        = 0.5
		affordable = 3
		attempts   = 12
	)
	d := weighted.New[int]()
	d.Add(1, 1)
	d.Add(2, 2)
	src := budget.NewSource("overdraw", affordable*eps*(1+1e-9))

	var wg sync.WaitGroup
	errs := make([]error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := FromDataset(d, src)
			_, errs[i] = NoisyCount(c, eps, rand.New(rand.NewSource(int64(i))))
		}(i)
	}
	wg.Wait()

	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
			continue
		}
		var ib *budget.InsufficientBudgetError
		if !errors.As(err, &ib) {
			t.Fatalf("unexpected error type: %v", err)
		}
		if ib.Requested != eps {
			t.Errorf("overdraw reports requested %g, want %g", ib.Requested, eps)
		}
	}
	if ok != affordable {
		t.Fatalf("%d NoisyCounts succeeded, want exactly %d", ok, affordable)
	}
	if spent := src.Spent(); spent > affordable*eps*(1+1e-6) {
		t.Errorf("spent %g exceeds the %d affordable releases", spent, affordable)
	}
}
