package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

func TestPushDatasetLoadsInitialData(t *testing.T) {
	e := New()
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

func TestBulkLoadMatchesReference(t *testing.T) {
	// A load far past the retention bound — whose emission the node
	// adopts instead of copying — must produce the same result as the
	// reference, and leave the state holding every record.
	e := New()
	rng := rand.New(rand.NewSource(42))
	in := NewInput[int](e)
	grp := GroupBy[int, int, int](in, func(x int) int { return x % 17 }, func(m []int) int { return len(m) })
	out := incremental.Collect[weighted.Grouped[int, int]](grp)
	ref := weighted.New[int]()
	batch := make([]incremental.Delta[int], 0, 4096)
	for i := 0; i < 4096; i++ {
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
	// package's Collect and NoisyCountSink consume engine pipelines
	// unchanged.
	e := New()
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
	// An edge swap leaves group norms unchanged, so the engine's join
	// must resolve it through the fast path, which the body counts.
	e := New()
	key := func(x int) int { return x % 2 }
	in := NewInput[int](e)
	other := NewInput[int](e)
	j := Join[int, int, int, [2]int](in, other, key, key, func(x, y int) [2]int { return [2]int{x, y} })
	incremental.Collect[[2]int](j)
	other.Push([]incremental.Delta[int]{{Record: 0, Weight: 1}, {Record: 2, Weight: 1}})
	in.Push([]incremental.Delta[int]{{Record: 4, Weight: 1}})
	// Move weight from record 4 to record 6: same key (0), same norm.
	before := j.body.FastKeys()
	in.Push([]incremental.Delta[int]{{Record: 4, Weight: -1}, {Record: 6, Weight: 1}})
	if j.body.FastKeys() != before+1 {
		t.Errorf("fast keys = %d, want %d", j.body.FastKeys(), before+1)
	}
	if j.StateSize() == 0 {
		t.Error("join state size = 0, want > 0")
	}
}

func TestShaveStateSize(t *testing.T) {
	e := New()
	in := NewInput[int](e)
	sh := ShaveConst[int](in, 1)
	incremental.Collect[weighted.Indexed[int]](sh)
	in.Push([]incremental.Delta[int]{{Record: 1, Weight: 2}, {Record: 2, Weight: 1}})
	if got := sh.StateSize(); got != 2 {
		t.Errorf("shave state size = %d, want 2", got)
	}
}

// TestMinMaxStateSize counts an Intersect node's records on both sides,
// through the engine. It counted Union's until Union left the executor.
func TestMinMaxStateSize(t *testing.T) {
	e := New()
	a, b := NewInput[int](e), NewInput[int](e)
	u := Intersect[int](a, b)
	incremental.Collect[int](u)
	a.Push([]incremental.Delta[int]{{Record: 1, Weight: 1}})
	b.Push([]incremental.Delta[int]{{Record: 1, Weight: 2}, {Record: 2, Weight: 1}})
	if got := u.StateSize(); got != 3 {
		t.Errorf("intersect state size = %d, want 3", got)
	}
}

func TestCrossEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("binary operator across engines did not panic")
		}
	}()
	a := NewInput[int](New())
	b := NewInput[int](New())
	Intersect[int](a, b)
}

func TestReentrantPushPanics(t *testing.T) {
	e := New()
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

// TestProfileCountsWhereOperatorsRun pins Engine.Profile: per node, in
// scheduling order, the rounds in which it had input, the differences it
// took and emitted — counted by the scheduler, once per round — and the
// records a stateful node indexes. A round
// that brings a node nothing, and a transaction event, count nothing.
func TestProfileCountsWhereOperatorsRun(t *testing.T) {
	forEachConfig(t, func(t *testing.T, e *Engine, _ int64) {
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
