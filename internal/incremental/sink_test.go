package incremental

import (
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

func TestNoisyCountSinkInitialDomain(t *testing.T) {
	in := newFeed[string]()
	obs := MapObservations[string]{"a": 2.0, "b": -1.0}
	sink := NewNoisyCountSink[string](in, obs, []string{"a", "b"}, 0.1)
	// q = 0 everywhere: L1 = |0-2| + |0-(-1)| = 3.
	if got := sink.L1(); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("initial L1 = %v, want 3.0", got)
	}
}

func TestNoisyCountSinkTracksPushes(t *testing.T) {
	in := newFeed[string]()
	obs := MapObservations[string]{"a": 2.0}
	sink := NewNoisyCountSink[string](in, obs, []string{"a"}, 0.1)
	in.Push([]Delta[string]{{"a", 1.5}})
	// |1.5 - 2| = 0.5
	if got := sink.L1(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("L1 after push = %v, want 0.5", got)
	}
	in.Push([]Delta[string]{{"a", 0.5}})
	if got := sink.L1(); math.Abs(got) > 1e-12 {
		t.Errorf("L1 at perfect fit = %v, want 0", got)
	}
}

func TestNoisyCountSinkLazyObservation(t *testing.T) {
	in := newFeed[string]()
	// Observations that return a fixed value for unseen records.
	obs := obsFunc[string](func(x string) float64 { return 7.0 })
	sink := NewNoisyCountSink[string](in, obs, nil, 0.1)
	if sink.L1() != 0 {
		t.Errorf("empty domain L1 = %v, want 0", sink.L1())
	}
	// A never-released record appears: its observation (7.0) is fetched
	// lazily, and first touch adds 0 — the term is |q-7| - |7|, what the
	// graph's weight on the record costs, not |q-7|.
	in.Push([]Delta[string]{{"new", 1.0}})
	if got := sink.L1(); got != -1 {
		t.Errorf("L1 after new record = %v, want |1-7| - |7| = -1", got)
	}
	if sink.Bins() != 1 {
		t.Errorf("sink holds %d records, want the live one", sink.Bins())
	}
	// Removing the record again returns L1 to its prior bits and the
	// record is forgotten: the score is a function of q alone.
	in.Push([]Delta[string]{{"new", -1.0}})
	if got := sink.L1(); math.Float64bits(got) != math.Float64bits(0) {
		t.Errorf("L1 after retraction = %v, want exactly the 0 it started from", got)
	}
	if sink.Bins() != 0 {
		t.Errorf("sink still holds %d records after the retraction", sink.Bins())
	}
	if got := sink.RecomputeL1(); got != 0 {
		t.Errorf("recomputed L1 = %v, want 0", got)
	}
}

type obsFunc[T comparable] func(T) float64

func (f obsFunc[T]) Get(x T) float64 { return f(x) }

func TestNoisyCountSinkRollbackExact(t *testing.T) {
	// Pushing a batch and then its negation must restore L1 (within float
	// tolerance): the MCMC rejection path.
	rng := rand.New(rand.NewSource(11))
	in := newFeed[int]()
	obs := obsFunc[int](func(x int) float64 { return float64(x) * 0.3 })
	// The domain covers every record randBatch can produce, so lazily
	// fetched observations cannot shift the baseline mid-test.
	sink := NewNoisyCountSink[int](in, obs, []int{0, 1, 2, 3, 4, 5}, 0.1)
	// Build up some state.
	in.Push([]Delta[int]{{0, 1}, {1, 2}, {2, 3}})
	before := sink.L1()
	for i := 0; i < 1000; i++ {
		batch := randBatch(rng, 6, 3)
		inverse := make([]Delta[int], len(batch))
		for j, d := range batch {
			inverse[j] = Delta[int]{d.Record, -d.Weight}
		}
		in.Push(batch)
		in.Push(inverse)
	}
	if math.Abs(sink.L1()-before) > 1e-6 {
		t.Errorf("L1 after 1000 push/rollback cycles = %v, want %v", sink.L1(), before)
	}
}

func TestNoisyCountSinkDriftAndRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := newFeed[int]()
	obs := obsFunc[int](func(x int) float64 { return rngObs(x) })
	sink := NewNoisyCountSink[int](in, obs, nil, 0.2)
	for i := 0; i < 5000; i++ {
		in.Push(randBatch(rng, 10, 2))
	}
	if d := sink.Drift(); d > 1e-6 {
		t.Errorf("drift after 5000 batches = %v, want < 1e-6", d)
	}
	r := sink.RecomputeL1()
	// Map iteration order varies between summations, so the residual is
	// bounded by float addition reordering, not exactly zero.
	if d := sink.Drift(); d > 1e-12 {
		t.Errorf("drift after RecomputeL1 = %v, want ~0", d)
	}
	if math.Abs(r-sink.L1()) > 1e-12 {
		t.Error("RecomputeL1 return value disagrees with state")
	}
}

func rngObs(x int) float64 { return math.Sin(float64(x)) * 3 }

func TestScorerCombinesSinks(t *testing.T) {
	inA := newFeed[string]()
	inB := newFeed[string]()
	sa := NewNoisyCountSink[string](inA, MapObservations[string]{"x": 1.0}, []string{"x"}, 0.5)
	sb := NewNoisyCountSink[string](inB, MapObservations[string]{"y": 2.0}, []string{"y"}, 0.25)
	sc := NewScorer(sa, sb)
	// Score = 0.5*|0-1| + 0.25*|0-2| = 1.0
	if got := sc.Score(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("score = %v, want 1.0", got)
	}
	inA.Push([]Delta[string]{{"x", 1}})
	if got := sc.Score(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("score after fit on A = %v, want 0.5", got)
	}
	if got := sc.Recompute(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("recomputed score = %v, want 0.5", got)
	}
}

func TestScorerAdd(t *testing.T) {
	sc := NewScorer()
	in := newFeed[string]()
	s := NewNoisyCountSink[string](in, MapObservations[string]{"x": 4.0}, []string{"x"}, 1.0)
	sc.Add(s)
	if got := sc.Score(); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("score = %v, want 4.0", got)
	}
}

func TestJoinFastPathStats(t *testing.T) {
	// An update that moves weight between records of the same key without
	// changing the group norm must take the fast path; an update that
	// changes the norm must take the slow path.
	j := Join(
		func(x int) int { return 0 }, func(x int) int { return 0 },
		func(x, y int) [2]int { return [2]int{x, y} }, func([]Delta[[2]int]) {})
	j.ApplyRight([]Delta[int]{{100, 1}})
	j.ApplyLeft([]Delta[int]{{1, 1}, {2, 1}}) // norm 0 -> 2: slow
	slowBefore := j.SlowKeys()
	if slowBefore == 0 {
		t.Fatal("expected slow path on norm change")
	}
	fastBefore := j.FastKeys()
	// Swap weight between records: norm stays 2.
	j.ApplyLeft([]Delta[int]{{1, -1}, {3, 1}})
	if j.FastKeys() != fastBefore+1 {
		t.Errorf("fast keys = %d, want %d", j.FastKeys(), fastBefore+1)
	}
	if j.SlowKeys() != slowBefore {
		t.Errorf("slow keys moved on norm-preserving update: %d -> %d", slowBefore, j.SlowKeys())
	}
}

func TestJoinFastPathMatchesSlowPathResults(t *testing.T) {
	// Same update sequence with and without the fast path must produce
	// identical outputs (the ablation's correctness precondition).
	run := func(fast bool) *weighted.Dataset[[2]int] {
		rng := rand.New(rand.NewSource(13))
		out := weighted.New[[2]int]()
		j := Join(joinKeys, joinKeys,
			func(x, y int) [2]int { return [2]int{x, y} }, fold(out))
		j.SetFastPath(fast)
		for i := 0; i < 200; i++ {
			// Norm-preserving moves half the time.
			if rng.Intn(2) == 0 {
				a, b := rng.Intn(4)*2, rng.Intn(4)*2 // same key (even)
				j.ApplyLeft([]Delta[int]{{a, 1}, {b, -1}})
			} else {
				j.ApplyLeft(randBatch(rng, 8, 1))
				j.ApplyRight(randBatch(rng, 8, 1))
			}
		}
		return out
	}
	withFast := run(true)
	withoutFast := run(false)
	if !weighted.Equal(withFast, withoutFast, 1e-8) {
		t.Errorf("fast path changed results:\nfast: %v\nslow: %v", withFast, withoutFast)
	}
}

func TestCollectorWeightAndNorm(t *testing.T) {
	in := newFeed[string]()
	c := Collect[string](in)
	in.Push([]Delta[string]{{"a", 2}, {"b", -1}})
	if c.Weight("a") != 2 || c.Weight("b") != -1 {
		t.Errorf("weights = %v, %v; want 2, -1", c.Weight("a"), c.Weight("b"))
	}
	if c.Norm() != 3 {
		t.Errorf("norm = %v, want 3", c.Norm())
	}
}

// TestEmptyBatchNoEmission pins that a body calls its handler only with
// differences to hand over: an empty input, one that does not move the
// output, one side of a join whose other side is empty and one that
// cancels within the batch emit nothing.
func TestEmptyBatchNoEmission(t *testing.T) {
	calls := 0
	count := func([]Delta[int]) { calls++ }
	u := Union(count)
	u.ApplyLeft(nil)
	u.ApplyRight([]Delta[int]{})
	u.ApplyLeft([]Delta[int]{{1, -1}}) // max(-1, 0) is still 0
	j := Join(joinKeys, joinKeys, func(x, y int) int { return x + y }, count)
	j.ApplyLeft([]Delta[int]{{1, 1}, {2, 1}})
	s := Shave(func(int, int) float64 { return 1 }, func([]Delta[weighted.Indexed[int]]) { calls++ })
	s.Apply([]Delta[int]{{1, 1}, {1, -1}})
	if calls != 0 {
		t.Errorf("pushes that change no output triggered %d emissions, want 0", calls)
	}
}

// TestSinkRunsMatchPerDelta pins "same order, same floats" for the
// sink's run loop: the same differences delivered as one batch, cut into
// arbitrary sub-batches (mid-run included) and one at a time — where
// every run has length one, the per-difference loop this one replaced —
// leave bit-equal L1, equal weights and as many held records; outside a
// transaction, inside one that commits, and inside one that aborts (which
// must also put back the L1 bits and record count it began with). The
// order of the held never-released records may differ with the cut: a
// record whose weight passes through zero between two pushes outside a
// transaction is forgotten and re-enters at the end. Streams are runs of
// a few records, some never released, with weights that cancel exactly or
// fall under the sink's 1e-12 mid-run.
func TestSinkRunsMatchPerDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dom = 8
	weights := []float64{1, -1, 1, -1, 0.5, -0.5, 3e-13, -3e-13}
	stream := func() []Delta[int] {
		var ds []Delta[int]
		for runs := 1 + rng.Intn(12); runs > 0; runs-- {
			x := rng.Intn(dom)
			for n := 1 + rng.Intn(6); n > 0; n-- {
				w := weights[rng.Intn(len(weights))]
				if rng.Intn(4) == 0 {
					w = rng.NormFloat64()
				}
				ds = append(ds, Delta[int]{x, w})
			}
		}
		return ds
	}
	for trial := 0; trial < 300; trial++ {
		warm, body := stream(), stream()
		for _, mode := range []string{"load", "commit", "abort"} {
			type outcome struct {
				l1   uint64
				q    [dom]float64
				bins int
			}
			var got [3]outcome
			for cut := range got {
				in := newFeed[int]()
				s := NewNoisyCountSink[int](in, obsFunc[int](rngObs), []int{0, 1, 2}, 0.5)
				in.Push(warm)
				began := outcome{l1: math.Float64bits(s.L1()), bins: s.Bins()}
				if mode != "load" {
					in.Txn(TxnBegin)
				}
				for rest := body; len(rest) > 0; {
					n := len(rest) // cut 0: the whole stream at once
					switch cut {
					case 1:
						n = 1 + rng.Intn(len(rest))
					case 2:
						n = 1
					}
					in.Push(rest[:n])
					rest = rest[n:]
				}
				switch mode {
				case "commit":
					in.Txn(TxnCommit)
				case "abort":
					in.Txn(TxnAbort)
				}
				o := outcome{l1: math.Float64bits(s.L1()), bins: s.Bins()}
				if mode == "abort" && (o.l1 != began.l1 || o.bins != began.bins) {
					t.Fatalf("trial %d, delivery %d: abort left L1 bits %x and %d records, began with %x and %d",
						trial, cut, o.l1, o.bins, began.l1, began.bins)
				}
				for x := range o.q {
					o.q[x] = s.Weight(x)
				}
				got[cut] = o
			}
			for cut, o := range got[1:] {
				if o != got[0] {
					t.Fatalf("trial %d, %s: delivery %d ended at %+v, one batch at %+v", trial, mode, cut+1, o, got[0])
				}
			}
		}
	}
}
