package engine

import (
	"runtime"
	"testing"
	"time"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
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
// sibling GroupBys concurrently — each waits for the other inside its key
// function — and that the same two nodes in a Begin/Push/Commit round, or
// in a push of fewer than minLoad records, run on the pushing goroutine,
// starting none. (Sibling Selects would not do: a stateless node runs on
// its upstream's goroutine.)
func TestLoadRunsBranchesAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := New()
	in := NewInput[int](e)
	meet := make(chan struct{})
	loading := true
	mod := func(x int) int { return x % 64 }
	count := func(m []int) int { return len(m) }
	branch := func(send bool) *GroupByNode[int, int, int] {
		return GroupBy[int](in, func(x int) int {
			if loading && x == 0 {
				rendezvous(t, meet, send)
			}
			return mod(x)
		}, count)
	}
	left, right := branch(true), branch(false)
	var during []int
	for _, s := range []*GroupByNode[int, int, int]{left, right} {
		s.Subscribe(func([]incremental.Delta[weighted.Grouped[int, int]]) {
			if !loading {
				during = append(during, runtime.NumGoroutine())
			}
		})
	}
	lc, rc := incremental.Collect[weighted.Grouped[int, int]](left), incremental.Collect[weighted.Grouped[int, int]](right)
	ref := weighted.New[int]()
	push := func(batch []incremental.Delta[int]) {
		for _, d := range batch {
			ref.Add(d.Record, d.Weight)
		}
		in.Push(batch)
	}
	check := func(when string) {
		t.Helper()
		want := weighted.GroupBy(ref, mod, count)
		if !weighted.Equal(lc.Snapshot(), want, eqTol) || !weighted.Equal(rc.Snapshot(), want, eqTol) {
			t.Fatalf("%s: the branches diverged from the reference", when)
		}
	}

	push(loadBatch())
	check("load")

	loading = false
	before := runtime.NumGoroutine()
	in.Begin()
	push([]incremental.Delta[int]{{Record: 1, Weight: -1}, {Record: -3, Weight: 1}})
	in.Commit()
	push([]incremental.Delta[int]{{Record: -5, Weight: 1}})
	if len(during) != 4 {
		t.Fatalf("handlers ran %d times in the two serial rounds, want 4", len(during))
	}
	for _, n := range during {
		if n != before {
			t.Errorf("%d goroutines during a serial round, %d before it", n, before)
		}
	}
	check("the serial rounds")
}

// TestLoadPanicReachesThePusher pins that a panic on one of a load's
// goroutines is raised again on the pushing one, with its value: that of
// the lowest-indexed node when two branches panic, and only once the
// goroutines the load started have returned. A stateless node's panic is
// raised on its upstream's goroutine, and reaches the pusher the same way.
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
			count := func(m []int) int { return len(m) }
			GroupBy[int](in, func(int) int {
				rendezvous(t, meet, true)
				panic(boom{"left"})
			}, count)
			GroupBy[int](in, func(int) int {
				rendezvous(t, meet, false)
				panic(boom{"right"})
			}, count)
		}, boom{"left"}},
		{"where", func(t *testing.T, in *Input[int]) {
			grouped := GroupBy[int](in, func(x int) int { return x % 2 }, func(m []int) int { return len(m) })
			Where(grouped, func(weighted.Grouped[int, int]) bool { panic(boom{"where"}) })
		}, boom{"where"}},
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

// TestLoadStreamsItsStatelessTail pins a load through stateless nodes on
// the load's goroutines. Two distinct self-joins take the same 131 072
// paths; each feeds a Where and a Select. The first join's tail keeps
// nothing, so the join streams its load in chunks through it. The second
// Where also feeds a ShaveConst, so that Where keeps the round whole and
// its join emits once. Both must read like the reference, and every
// stateless node must count one round whose input is what its upstream
// emitted.
func TestLoadStreamsItsStatelessTail(t *testing.T) {
	e := New()
	in := NewInput[int](e)
	key := func(x int) int { return x % 128 }
	pair := func(x, y int) [2]int { return [2]int{x, y} }
	open := func(p [2]int) bool { return p[0] != p[1] }
	first := func(p [2]int) int { return p[0] % 5 }
	type tail struct {
		where      *Node[[2]int]
		sel        *Node[int]
		out        *incremental.Collector[int]
		deliveries int
	}
	tails := make([]*tail, 2)
	for i := range tails {
		tl := &tail{where: Where(JoinDistinct[int, int, int, [2]int](in, in, key, key, pair), open)}
		tl.where.Subscribe(func([]incremental.Delta[[2]int]) { tl.deliveries++ })
		tl.sel = Select(tl.where, first)
		tl.out = incremental.Collect[int](tl.sel)
		tails[i] = tl
	}
	ShaveConst[[2]int](tails[1].where, 1)
	batch := loadBatch()
	in.Push(batch)

	ref := weighted.New[int]()
	for _, d := range batch {
		ref.Add(d.Record, d.Weight)
	}
	want := weighted.Select(weighted.Where(weighted.Join(ref, ref, key, key, pair), open), first)
	for i, tl := range tails {
		if !weighted.Equal(tl.out.Snapshot(), want, eqTol) {
			t.Errorf("tail %d diverged from the reference", i)
		}
	}
	if tails[0].deliveries < 2 || tails[1].deliveries != 1 {
		t.Errorf("the Wheres emitted the load in %d and %d batches, want several and 1", tails[0].deliveries, tails[1].deliveries)
	}
	prof := e.Profile()
	for _, tl := range tails {
		where, sel := prof[tl.where.node], prof[tl.sel.node]
		join := prof[tl.where.node-1]
		if where.Rounds != 1 || sel.Rounds != 1 || where.In != join.Out || sel.In != where.Out || sel.Out != sel.In {
			t.Errorf("profile of join, Where, Select: %+v, %+v, %+v", join, where, sel)
		}
	}
}
