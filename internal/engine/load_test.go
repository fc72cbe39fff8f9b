package engine

import (
	"runtime"
	"testing"
	"time"

	"wpinq/internal/incremental"
)

// A load — a push of at least minLoad records outside any transaction —
// starts a node once its upstreams have finished, on GOMAXPROCS
// goroutines; a round inside a transaction, or of fewer records, runs on
// the pushing goroutine alone.

// loadBatch returns a batch of minLoad unit records 0, 1, 2, ….
func loadBatch() []incremental.Delta[int] {
	batch := make([]incremental.Delta[int], minLoad)
	for i := range batch {
		batch[i] = incremental.Delta[int]{Record: i, Weight: 1}
	}
	return batch
}

// rendezvous returns once the sibling branch's call with the other send
// has reached it, or reports that the two branches did not run at once.
// It runs on the engine's goroutines, so it reports with Error.
func rendezvous(t *testing.T, meet chan struct{}, send bool) {
	timeout := time.After(5 * time.Second)
	ok := true
	if send {
		select {
		case meet <- struct{}{}:
		case <-timeout:
			ok = false
		}
	} else {
		select {
		case <-meet:
		case <-timeout:
			ok = false
		}
	}
	if !ok {
		t.Error("sibling branches of a load did not run at once")
	}
}

// pushRecovered pushes batch and returns what the push panicked with, or
// nil.
func pushRecovered(in *Input[int], batch []incremental.Delta[int]) (value any) {
	defer func() { value = recover() }()
	in.Push(batch)
	return nil
}

// TestLoadRunsBranchesAtOnce pins that a load at GOMAXPROCS 2 runs two
// sibling Selects concurrently — each waits for the other inside its
// function — and that the same two nodes in a Begin/Push/Commit round, or
// in a push of fewer than minLoad records, run on the pushing goroutine,
// starting none.
func TestLoadRunsBranchesAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := New()
	in := NewInput[int](e)
	meet := make(chan struct{})
	loading := true
	branch := func(send bool) *Node[int] {
		return Select[int](in, func(x int) int {
			if loading && x == 0 {
				rendezvous(t, meet, send)
			}
			return x + 1
		})
	}
	left, right := branch(true), branch(false)
	var during []int
	for _, s := range []*Node[int]{left, right} {
		s.Subscribe(func([]incremental.Delta[int]) {
			if !loading {
				during = append(during, runtime.NumGoroutine())
			}
		})
	}
	lc, rc := incremental.Collect[int](left), incremental.Collect[int](right)

	in.Push(loadBatch())
	if lc.Weight(minLoad) != 1 || rc.Weight(minLoad) != 1 {
		t.Fatalf("load: weights %v, %v at %d, want 1, 1", lc.Weight(minLoad), rc.Weight(minLoad), minLoad)
	}

	loading = false
	before := runtime.NumGoroutine()
	in.Begin()
	in.Push([]incremental.Delta[int]{{Record: 1, Weight: -1}, {Record: -3, Weight: 1}})
	in.Commit()
	in.Push([]incremental.Delta[int]{{Record: -5, Weight: 1}})
	if len(during) != 4 {
		t.Fatalf("handlers ran %d times in the two serial rounds, want 4", len(during))
	}
	for _, n := range during {
		if n != before {
			t.Errorf("%d goroutines during a serial round, %d before it", n, before)
		}
	}
	if lc.Weight(2) != 0 || lc.Weight(-2) != 1 || rc.Weight(-4) != 1 {
		t.Errorf("after the serial rounds: weights %v, %v, %v, want 0, 1, 1", lc.Weight(2), lc.Weight(-2), rc.Weight(-4))
	}
}

// TestLoadPanicReachesThePusher pins that a panic on one of a load's
// goroutines is raised again on the pushing one, with its value: that of
// the lowest-indexed node when two branches panic, and only once the
// goroutines the load started have returned.
//
// A goroutine is counted from its last statement until the runtime frees
// it, and on a busy host its thread can be descheduled in between, so a
// load whose workers have all returned may, rarely, still count one. Each
// row therefore loads twenty times and tolerates two such counts: a Push
// that did not wait for its workers leaves them counted after most loads.
func TestLoadPanicReachesThePusher(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	type boom struct{ at string }
	rows := []struct {
		name  string
		build func(t *testing.T, in *Input[int])
		want  any
	}{
		{"body", func(t *testing.T, in *Input[int]) {
			Select[int](in, func(x int) int { return x })
			GroupBy[int, int, int](in, func(x int) int { return x % 2 }, func([]int) int { panic(boom{"reduce"}) })
		}, boom{"reduce"}},
		{"two branches", func(t *testing.T, in *Input[int]) {
			meet := make(chan struct{})
			Select[int](in, func(int) int {
				rendezvous(t, meet, true)
				panic(boom{"left"})
			})
			Select[int](in, func(int) int {
				rendezvous(t, meet, false)
				panic(boom{"right"})
			})
		}, boom{"left"}},
	}
	const loads = 20
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			counted := 0
			for range loads {
				in := NewInput[int](New())
				row.build(t, in)
				before := runtime.NumGoroutine()
				got := pushRecovered(in, loadBatch())
				if runtime.NumGoroutine() != before {
					counted++
				}
				if got != row.want {
					t.Fatalf("push panicked with %v, want %v", got, row.want)
				}
			}
			if counted > loads/10 {
				t.Errorf("%d of %d loads left more goroutines than they found", counted, loads)
			}
		})
	}
}
