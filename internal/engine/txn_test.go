package engine

import (
	"math/rand"
	"testing"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Transactional propagation on the sharded executor: an aborted
// transaction must leave every shard's state — and therefore the
// engine's collected outputs and future emissions — bit-identical to an
// engine that never saw the speculative rounds. Runs across all shard
// layouts, including cutoff-0 configurations that force parallel
// dispatch for every speculative round, so `go test -race` exercises the
// per-shard undo logging concurrently.

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
	ShaveConst[int](sel, 0.5) // exercise record-partitioned state too
	return in, col, sink
}

func TestTxnEngineAbortLeavesNoTrace(t *testing.T) {
	forEachConfig(t, func(t *testing.T, e *Engine) {
		rng := rand.New(rand.NewSource(62))
		subjectIn, subjectCol, subjectSink := buildTxnGraph(e)
		twinIn, twinCol, twinSink := buildTxnGraph(newTestEngine(e.Shards(), e.cutoff))

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
	e := New(2)
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

// buildFusionDiamond assembles the DAG shape plan fusion produces: one
// shared prefix stream with three consumers — two of which reconverge
// through a binary join (a fan-out diamond), the third a group-by
// branch — so transaction control events reach every downstream node
// along multiple paths and the per-node gates must dedup them.
func buildFusionDiamond(e *Engine) (*Input[int], *incremental.Collector[[2]int], *incremental.Collector[weighted.Grouped[int, int]]) {
	in := NewInput[int](e)
	shared := Select[int](in, func(x int) int { return x % 32 }) // the fused prefix
	left := Where[int](shared, func(x int) bool { return x%2 == 0 })
	right := Select[int](shared, func(x int) int { return (x * 3) % 32 })
	ShaveConst[int](shared, 0.25) // a third consumer with record-partitioned state
	diamond := Join[int, int, int, [2]int](left, right,
		func(x int) int { return x % 4 }, func(y int) int { return y % 4 },
		func(x, y int) [2]int { return [2]int{x, y} })
	grouped := GroupBy[int, int, int](shared, func(x int) int { return x % 7 }, func(m []int) int { return len(m) })
	return in, incremental.Collect[[2]int](diamond), incremental.Collect[weighted.Grouped[int, int]](grouped)
}

// TestTxnFanOutDiamond fuzzes randomized commit/abort cycles through the
// fusion-shaped DAG against a twin that only ever sees the committed
// batches: gate dedup at the diamond's reconvergence must leave aborted
// speculation invisible, bit-for-bit, on every shard layout (cutoff-0
// configs force parallel dispatch each round, so -race covers the
// concurrent gate paths).
func TestTxnFanOutDiamond(t *testing.T) {
	forEachConfig(t, func(t *testing.T, e *Engine) {
		rng := rand.New(rand.NewSource(77))
		subjectIn, subjectDiamond, subjectGroups := buildFusionDiamond(e)
		twinIn, twinDiamond, twinGroups := buildFusionDiamond(newTestEngine(e.Shards(), e.cutoff))

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
