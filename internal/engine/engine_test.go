package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

func TestNewClampsShards(t *testing.T) {
	if got := New(0).Shards(); got < 1 {
		t.Errorf("New(0) shards = %d, want >= 1", got)
	}
	if got := New(-3).Shards(); got < 1 {
		t.Errorf("New(-3) shards = %d, want >= 1", got)
	}
	if got := New(5).Shards(); got != 5 {
		t.Errorf("New(5) shards = %d, want 5", got)
	}
	if got := New(10 * MaxShards).Shards(); got != MaxShards {
		t.Errorf("shards = %d, want clamp to %d", got, MaxShards)
	}
}

func TestPushDatasetLoadsInitialData(t *testing.T) {
	e := New(4)
	in := NewInput[int](e)
	out := incremental.Collect[int](Select[int, int](in, func(x int) int { return x * 2 }))
	d := weighted.FromPairs(
		weighted.Pair[int]{Record: 1, Weight: 0.5},
		weighted.Pair[int]{Record: 2, Weight: 2},
	)
	in.PushDataset(d)
	if w := out.Weight(2); w != 0.5 {
		t.Errorf("weight(2) = %v, want 0.5", w)
	}
	if w := out.Weight(4); w != 2 {
		t.Errorf("weight(4) = %v, want 2", w)
	}
	if n := out.Snapshot().Len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
	if nm := out.Norm(); nm != 2.5 {
		t.Errorf("norm = %v, want 2.5", nm)
	}
}

func TestBulkLoadTakesParallelPath(t *testing.T) {
	// A batch far beyond the serial cutoff must produce the same result
	// as the reference, with every operator dispatching workers.
	e := New(8)
	rng := rand.New(rand.NewSource(42))
	in := NewInput[int](e)
	grp := GroupBy[int, int, int](in, func(x int) int { return x % 17 }, func(m []int) int { return len(m) })
	out := incremental.Collect[weighted.Grouped[int, int]](grp)
	ref := weighted.New[int]()
	batch := make([]incremental.Delta[int], 0, 8*DefaultSerialCutoff)
	for i := 0; i < 8*DefaultSerialCutoff; i++ {
		x := rng.Intn(500)
		w := rng.Float64()
		batch = append(batch, incremental.Delta[int]{Record: x, Weight: w})
		ref.Add(x, w)
	}
	in.Push(batch)
	want := weighted.GroupBy(ref, func(x int) int { return x % 17 }, func(m []int) int { return len(m) })
	if !weighted.Equal(out.Snapshot(), want, eqTol) {
		t.Fatal("bulk load diverged from reference")
	}
	if got := grp.StateSize(); got != ref.Len() {
		t.Errorf("GroupBy state size = %d, want %d", got, ref.Len())
	}
}

func TestIncrementalSinksAttachToEngineStreams(t *testing.T) {
	// Engine streams implement incremental.Source, so the incremental
	// package's Collect and NoisyCountSink consume sharded pipelines
	// unchanged.
	e := New(3)
	e.SetSerialCutoff(0)
	in := NewInput[int](e)
	sel := Select[int, int](in, func(x int) int { return x % 4 })
	serial := incremental.Collect[int](sel)
	sink := incremental.NewNoisyCountSink[int](sel, incremental.MapObservations[int]{0: 1, 1: 2}, []int{0, 1}, 0.5)
	if got := sink.L1(); got != 3 {
		t.Fatalf("initial L1 = %v, want 3", got)
	}
	in.Push([]incremental.Delta[int]{{Record: 4, Weight: 1}, {Record: 5, Weight: 2}})
	if w := serial.Weight(0); w != 1 {
		t.Errorf("serial collector weight(0) = %v, want 1", w)
	}
	if w := serial.Weight(1); w != 2 {
		t.Errorf("serial collector weight(1) = %v, want 2", w)
	}
	// q(0)=1 matches m(0)=1; q(1)=2 matches m(1)=2 -> L1 = 0.
	if got := sink.L1(); got != 0 {
		t.Errorf("L1 after push = %v, want 0", got)
	}
	if got := sink.RecomputeL1(); got != 0 {
		t.Errorf("recomputed L1 = %v, want 0", got)
	}
}

func TestJoinFastPathStats(t *testing.T) {
	// An edge swap leaves group norms unchanged, so the sharded join
	// must resolve it through the fast path, mirroring the incremental
	// engine's ablation counters.
	e := New(4)
	key := func(x int) int { return x % 2 }
	in := NewInput[int](e)
	other := NewInput[int](e)
	j := Join[int, int, int, [2]int](in, other, key, key, func(x, y int) [2]int { return [2]int{x, y} })
	incremental.Collect[[2]int](j)
	other.Push([]incremental.Delta[int]{{Record: 0, Weight: 1}, {Record: 2, Weight: 1}})
	in.Push([]incremental.Delta[int]{{Record: 4, Weight: 1}})
	// Move weight from record 4 to record 6: same key (0), same norm.
	j.SetFastPath(true)
	before := j.FastKeys()
	in.Push([]incremental.Delta[int]{{Record: 4, Weight: -1}, {Record: 6, Weight: 1}})
	if j.FastKeys() != before+1 {
		t.Errorf("fast keys = %d, want %d", j.FastKeys(), before+1)
	}
	if j.StateSize() == 0 {
		t.Error("join state size = 0, want > 0")
	}
}

func TestShaveStateSize(t *testing.T) {
	e := New(4)
	in := NewInput[int](e)
	sh := ShaveConst[int](in, 1)
	incremental.Collect[weighted.Indexed[int]](sh)
	in.Push([]incremental.Delta[int]{{Record: 1, Weight: 2}, {Record: 2, Weight: 1}})
	if got := sh.StateSize(); got != 2 {
		t.Errorf("shave state size = %d, want 2", got)
	}
}

func TestMinMaxStateSize(t *testing.T) {
	e := New(4)
	a, b := NewInput[int](e), NewInput[int](e)
	u := Union[int](a, b)
	incremental.Collect[int](u)
	a.Push([]incremental.Delta[int]{{Record: 1, Weight: 1}})
	b.Push([]incremental.Delta[int]{{Record: 1, Weight: 2}, {Record: 2, Weight: 1}})
	if got := u.StateSize(); got != 3 {
		t.Errorf("union state size = %d, want 3", got)
	}
}

func TestCrossEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("binary operator across engines did not panic")
		}
	}()
	a := NewInput[int](New(2))
	b := NewInput[int](New(2))
	Concat[int](a, b)
}

func TestReentrantPushPanics(t *testing.T) {
	e := New(2)
	in := NewInput[int](e)
	sel := Select[int, int](in, func(x int) int { return x })
	sel.Subscribe(func([]incremental.Delta[int]) {
		in.Push([]incremental.Delta[int]{{Record: 9, Weight: 1}})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("re-entrant push did not panic")
		}
	}()
	in.Push([]incremental.Delta[int]{{Record: 1, Weight: 1}})
}

func TestSplitChunks(t *testing.T) {
	mk := func(n int) []incremental.Delta[int] {
		b := make([]incremental.Delta[int], n)
		for i := range b {
			b[i] = incremental.Delta[int]{Record: i, Weight: 1}
		}
		return b
	}
	chunks := splitChunks([][]incremental.Delta[int]{mk(10), mk(3), nil}, 13, 4, nil)
	total := 0
	for _, c := range chunks {
		if len(c) == 0 {
			t.Error("splitChunks produced an empty chunk")
		}
		if len(c) > 4 {
			t.Errorf("chunk size %d exceeds target 4", len(c))
		}
		total += len(c)
	}
	if total != 13 {
		t.Errorf("chunked total = %d, want 13", total)
	}
}

func TestShardOfIsStable(t *testing.T) {
	e := New(8)
	for x := 0; x < 100; x++ {
		s := shardOf(e, x)
		if s < 0 || s >= 8 {
			t.Fatalf("shardOf(%d) = %d out of range", x, s)
		}
		if shardOf(e, x) != s {
			t.Fatalf("shardOf(%d) unstable", x)
		}
	}
}

// TestProfileCountsWhereOperatorsRun pins Engine.Profile: per node, in
// scheduling order, the rounds in which it had input, the differences it
// took and emitted — counted by the scheduler, once per round, whatever
// the shard count — and the records a stateful node indexes. A round
// that brings a node nothing, and a transaction event, count nothing.
func TestProfileCountsWhereOperatorsRun(t *testing.T) {
	forEachConfig(t, func(t *testing.T, e *Engine) {
		in := NewInput[int](e)
		odd := Where[int](in, func(x int) bool { return x%2 == 1 })
		grp := GroupBy[int, int, int](odd, func(x int) int { return x % 3 }, func(m []int) int { return len(m) })
		incremental.Collect[weighted.Grouped[int, int]](grp)

		in.Push([]incremental.Delta[int]{{Record: 1, Weight: 1}, {Record: 2, Weight: 1}, {Record: 3, Weight: 1}})
		in.Begin()
		in.Push([]incremental.Delta[int]{{Record: 4, Weight: 1}}) // filtered: the GroupBy sees no round
		in.Abort()

		got := e.Profile()
		want := []NodeProfile{
			{Index: 0, Op: "input", Rounds: 2, In: 4, Out: 4},
			{Index: 1, Op: "where", Rounds: 2, In: 4, Out: 2},
			{Index: 2, Op: "groupby", Rounds: 1, In: 2, Out: 2, State: 2},
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("profile\n got %+v\nwant %+v", got, want)
		}
		if grp.StateSize() != want[2].State {
			t.Errorf("profile state %d != StateSize %d", want[2].State, grp.StateSize())
		}
	})
}
