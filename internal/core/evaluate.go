package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Evaluable is a collection whose exact dataset Evaluate can compute:
// any *Collection[T], or a value that embeds one.
type Evaluable interface{ evaluate() }

func (c *Collection[T]) evaluate() { c.dataset() }

// Evaluate computes the exact dataset of every collection in cs, so that
// aggregating them afterwards does no query work. It charges nothing and
// releases nothing: what a later NoisyCount charges, in what order, and
// which noise it draws are exactly what they would have been without it.
// Each collection's dataset is the same whichever goroutine computes it
// (a collection accumulates its fragments on one goroutine, under its own
// lock), so evaluating in advance moves no released bit.
//
// The collections are handed out in order to min(GOMAXPROCS, len(cs))
// workers; with one, Evaluate runs on the calling goroutine and starts
// none. A panic in a worker is recovered there and raised again on the
// calling goroutine once every worker has returned: the panic of the
// first collection, in cs's order, that panicked, which is the one a
// sequential pass would have raised. After a panic no further collection
// is handed out. Nothing Evaluate starts outlives the call.
func Evaluate(cs ...Evaluable) {
	workers := min(runtime.GOMAXPROCS(0), len(cs))
	if workers <= 1 {
		for _, c := range cs {
			c.evaluate()
		}
		return
	}
	var (
		next    atomic.Int64 // index of the next collection to hand out
		stopped atomic.Bool  // a collection panicked: hand out nothing more
		wg      sync.WaitGroup
	)
	panicked := make([]bool, len(cs))
	values := make([]any, len(cs))
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(cs) {
					return
				}
				if values[i], panicked[i] = evaluateRecovered(cs[i]); panicked[i] {
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	// Every collection before the first to panic was handed out before
	// it, so the lowest index that panicked is the one a sequential pass
	// would have stopped at.
	for i, p := range panicked {
		if p {
			panic(values[i])
		}
	}
}

// evaluateRecovered evaluates c and reports whether it panicked, with the
// recovered value.
func evaluateRecovered(c Evaluable) (value any, panicked bool) {
	panicked = true
	defer func() {
		if panicked {
			value = recover()
		}
	}()
	c.evaluate()
	return nil, false
}
