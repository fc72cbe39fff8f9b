package engine

import (
	"math/rand"
	"testing"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Transactional propagation: an aborted transaction must leave every
// node's state — and therefore the engine's collected outputs and future
// emissions — bit-identical to an engine that never saw the speculative
// rounds.

// exactEqual compares two datasets bit-for-bit.
func exactEqual[T comparable](t *testing.T, name string, got, want *weighted.Dataset[T]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d records, want %d", name, got.Len(), want.Len())
	}
	want.Range(func(x T, w float64) {
		if gw := got.Weight(x); gw != w {
			t.Fatalf("%s: record %v weight %v, want %v (bit-exact)", name, x, gw, w)
		}
	})
}

// buildTxnGraph assembles a pipeline covering every operator: a stateless
// prefix through all five stateless operators, a self-join, a group-by,
// a shave, and a min/max diamond, terminating in both an engine
// Collector and an incremental sink attached across the package
// boundary.
func buildTxnGraph(e *Engine) (*Input[int], *incremental.Collector[[2]int], *incremental.NoisyCountSink[weighted.Grouped[int, int]]) {
	in := NewInput[int](e)
	sel := Select[int](in, func(x int) int { return x % 16 })
	evens := Where[int](sel, func(x int) bool { return x%2 == 0 })
	odds := Except[int](sel, evens)
	spread := SelectManySlice[int, int](odds, func(x int) []int { return []int{x, x + 1} })
	merged := Union[int](Concat[int](evens, spread), evens)
	j := Join[int, int, int, [2]int](merged, merged,
		func(x int) int { return x % 3 }, func(y int) int { return y % 3 },
		func(x, y int) [2]int { return [2]int{x, y} })
	col := incremental.Collect[[2]int](j)
	grouped := GroupBy[int, int, int](sel, func(x int) int { return x % 5 }, func(m []int) int { return len(m) })
	sink := incremental.NewNoisyCountSink[weighted.Grouped[int, int]](
		grouped,
		incremental.MapObservations[weighted.Grouped[int, int]]{},
		nil, 0.5)
	ShaveConst[int](sel, 0.5) // exercise record-indexed state too
	return in, col, sink
}

func TestTxnEngineAbortLeavesNoTrace(t *testing.T) {
	forEachConfig(t, func(t *testing.T, e *Engine, salt int64) {
		rng := rand.New(rand.NewSource(62 + salt))
		subjectIn, subjectCol, subjectSink := buildTxnGraph(e)
		twinIn, twinCol, twinSink := buildTxnGraph(New())

		base := randBatch(rng, 40, 64)
		subjectIn.Push(base)
		twinIn.Push(base)

		for cycle := 0; cycle < 150; cycle++ {
			subjectIn.Begin()
			batches := make([][]incremental.Delta[int], 1+rng.Intn(2))
			for bi := range batches {
				batches[bi] = randBatch(rng, 40, 1+rng.Intn(6))
				subjectIn.Push(batches[bi])
			}
			if rng.Intn(2) == 0 {
				subjectIn.Commit()
				for _, b := range batches {
					twinIn.Push(b)
				}
			} else {
				subjectIn.Abort()
			}
		}

		exactEqual(t, "join collector", subjectCol.Snapshot(), twinCol.Snapshot())
		if subjectSink.L1() != twinSink.L1() {
			t.Errorf("sink L1 %v, want %v (bit-exact)", subjectSink.L1(), twinSink.L1())
		}

		// Probe: future emissions must also be bit-identical.
		probe := randBatch(rng, 40, 8)
		subjectIn.Push(probe)
		twinIn.Push(probe)
		exactEqual(t, "post-probe collector", subjectCol.Snapshot(), twinCol.Snapshot())
		if subjectSink.L1() != twinSink.L1() {
			t.Errorf("post-probe sink L1 %v, want %v", subjectSink.L1(), twinSink.L1())
		}
	})
}

// TestTxnEnginePushCounter pins the propagation counter: control events
// are free, pushes count.
func TestTxnEnginePushCounter(t *testing.T) {
	e := New()
	in, _, _ := buildTxnGraph(e)
	in.Push(randBatch(rand.New(rand.NewSource(1)), 10, 4))
	in.Begin()
	in.Push(randBatch(rand.New(rand.NewSource(2)), 10, 4))
	in.Abort()
	in.Begin()
	in.Push(randBatch(rand.New(rand.NewSource(3)), 10, 4))
	in.Commit()
	if got := in.Pushes(); got != 3 {
		t.Errorf("Pushes() = %d, want 3 (Begin/Commit/Abort are not propagations)", got)
	}
}

// TestTxnEventsAreToldOnce pins the engine's transaction protocol: a
// party is told each event once, however many paths lead to the stream
// it subscribed through — here a diamond's reconvergence (a Join of two
// Selects of one stream) and a stateless stream — and a Begin inside a
// transaction, or a Commit or Abort outside one, is dropped: it leaves a
// graph with every operator bit-identical to a twin that never saw it.
func TestTxnEventsAreToldOnce(t *testing.T) {
	e := New()
	in := NewInput[int](e)
	left := Select[int](in, func(x int) int { return x % 8 })
	right := Select[int](in, func(x int) int { return (x * 3) % 8 })
	diamond := Join[int, int, int, [2]int](left, right,
		func(x int) int { return x % 4 }, func(y int) int { return y % 4 },
		func(x, y int) [2]int { return [2]int{x, y} })
	told := map[string]map[incremental.TxnOp]int{"diamond": {}, "select": {}}
	diamond.SubscribeTxn(func(op incremental.TxnOp) { told["diamond"][op]++ })
	left.SubscribeTxn(func(op incremental.TxnOp) { told["select"][op]++ })

	rng := rand.New(rand.NewSource(5))
	subjectIn, subjectCol, subjectSink := buildTxnGraph(New())
	twinIn, twinCol, twinSink := buildTxnGraph(New())
	base := randBatch(rng, 40, 64)
	in.Push(base)
	subjectIn.Push(base)
	twinIn.Push(base)

	want := map[incremental.TxnOp]int{}
	for cycle := 0; cycle < 40; cycle++ {
		first, second := randBatch(rng, 40, 1+rng.Intn(6)), randBatch(rng, 40, 1+rng.Intn(6))
		end := incremental.TxnCommit
		if rng.Intn(2) == 0 {
			end = incremental.TxnAbort
		}
		stray := incremental.TxnCommit + incremental.TxnOp(rng.Intn(2))
		for _, g := range []*Input[int]{in, subjectIn} {
			g.Begin()
			g.Push(first)
			g.Begin() // inside a transaction: dropped
			g.Push(second)
			resolve(g, end)
			resolve(g, stray) // outside a transaction: dropped
		}
		if end == incremental.TxnCommit {
			twinIn.Push(first)
			twinIn.Push(second)
		}
		want[incremental.TxnBegin]++
		want[end]++
		for at, got := range told {
			for _, op := range []incremental.TxnOp{incremental.TxnBegin, incremental.TxnCommit, incremental.TxnAbort} {
				if got[op] != want[op] {
					t.Fatalf("cycle %d: the party at the %s was told %v %d times, want %d", cycle, at, op, got[op], want[op])
				}
			}
		}
	}

	exactEqual(t, "join collector", subjectCol.Snapshot(), twinCol.Snapshot())
	if subjectSink.L1() != twinSink.L1() {
		t.Errorf("sink L1 %v, want %v (bit-exact)", subjectSink.L1(), twinSink.L1())
	}
	probe := randBatch(rng, 40, 8)
	subjectIn.Push(probe)
	twinIn.Push(probe)
	exactEqual(t, "post-probe collector", subjectCol.Snapshot(), twinCol.Snapshot())
	if subjectSink.L1() != twinSink.L1() {
		t.Errorf("post-probe sink L1 %v, want %v (bit-exact)", subjectSink.L1(), twinSink.L1())
	}
}

// resolve ends in's transaction with a Commit or an Abort.
func resolve(in *Input[int], op incremental.TxnOp) {
	if op == incremental.TxnCommit {
		in.Commit()
	} else {
		in.Abort()
	}
}

// buildFusionDiamond assembles the DAG shape plan fusion produces: one
// shared prefix stream with three consumers — two of which reconverge
// through a binary join (a fan-out diamond), the third a group-by
// branch — so one round reaches the join along two paths, and the join
// still runs once and is told each transaction event once.
func buildFusionDiamond(e *Engine) (*Input[int], *incremental.Collector[[2]int], *incremental.Collector[weighted.Grouped[int, int]]) {
	in := NewInput[int](e)
	shared := Select[int](in, func(x int) int { return x % 32 }) // the fused prefix
	left := Where[int](shared, func(x int) bool { return x%2 == 0 })
	right := Select[int](shared, func(x int) int { return (x * 3) % 32 })
	ShaveConst[int](shared, 0.25) // a third consumer with record-indexed state
	diamond := Join[int, int, int, [2]int](left, right,
		func(x int) int { return x % 4 }, func(y int) int { return y % 4 },
		func(x, y int) [2]int { return [2]int{x, y} })
	grouped := GroupBy[int, int, int](shared, func(x int) int { return x % 7 }, func(m []int) int { return len(m) })
	return in, incremental.Collect[[2]int](diamond), incremental.Collect[weighted.Grouped[int, int]](grouped)
}

// TestTxnFanOutDiamond fuzzes randomized commit/abort cycles through the
// fusion-shaped DAG against a twin that only ever sees the committed
// batches: aborted speculation at and below the diamond's reconvergence
// must be invisible, bit-for-bit.
func TestTxnFanOutDiamond(t *testing.T) {
	forEachConfig(t, func(t *testing.T, e *Engine, salt int64) {
		rng := rand.New(rand.NewSource(77 + salt))
		subjectIn, subjectDiamond, subjectGroups := buildFusionDiamond(e)
		twinIn, twinDiamond, twinGroups := buildFusionDiamond(New())

		base := randBatch(rng, 48, 80)
		subjectIn.Push(base)
		twinIn.Push(base)

		for cycle := 0; cycle < 200; cycle++ {
			subjectIn.Begin()
			batches := make([][]incremental.Delta[int], 1+rng.Intn(3))
			for bi := range batches {
				batches[bi] = randBatch(rng, 48, 1+rng.Intn(8))
				subjectIn.Push(batches[bi])
			}
			if rng.Intn(2) == 0 {
				subjectIn.Commit()
				for _, b := range batches {
					twinIn.Push(b)
				}
			} else {
				subjectIn.Abort()
			}
			if cycle%50 == 49 {
				exactEqual(t, "diamond collector", subjectDiamond.Snapshot(), twinDiamond.Snapshot())
				exactEqual(t, "group collector", subjectGroups.Snapshot(), twinGroups.Snapshot())
			}
		}

		probe := randBatch(rng, 48, 12)
		subjectIn.Push(probe)
		twinIn.Push(probe)
		exactEqual(t, "post-probe diamond", subjectDiamond.Snapshot(), twinDiamond.Snapshot())
		exactEqual(t, "post-probe groups", subjectGroups.Snapshot(), twinGroups.Snapshot())
	})
}
