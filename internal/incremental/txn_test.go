package incremental

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/weighted"
)

// Transactional-propagation properties, per operator shape: an aborted
// transaction must leave the node — its collected output AND its future
// emission behavior — bit-identical to a node that never saw the
// speculative batches, and a committed transaction must be bit-identical
// to an untracked push. These are exact comparisons, not the 1e-7
// tolerance of the inverse-push rollback tests: abort restores pre-image
// bytes, it does not re-derive them arithmetically.

// exactEqual compares two datasets bit-for-bit.
func exactEqual[T comparable](t *testing.T, name string, got, want *weighted.Dataset[T]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d records, want %d\ngot:  %v\nwant: %v", name, got.Len(), want.Len(), got, want)
	}
	want.Range(func(x T, w float64) {
		if gw := got.Weight(x); gw != w {
			t.Fatalf("%s: record %v weight %v, want %v (bit-exact)", name, x, gw, w)
		}
	})
}

// checkTxn drives two identical bodies (build returns the body's apply
// and Txn over the out it is handed): the subject sees speculative
// batches inside transactions (randomly committed or aborted), the twin
// sees only the committed ones, pushed plainly. A body emits nothing on
// abort, so the subject's accumulated output is put back to its Begin
// image — what every sink downstream of it does with its own log. After
// every transaction and at the end the outputs must match bit-for-bit; a
// final probe batch pushed to both must produce identical state, proving
// aborts also restored the operators' internal emission order.
func checkTxn[U comparable](t *testing.T, name string, build func(out Handler[U]) (apply func([]Delta[int]), txn func(TxnOp))) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))

	subjectOut, twinOut := weighted.New[U](), weighted.New[U]()
	subject, subjectTxn := build(func(b []Delta[U]) { fold(subjectOut)(b) })
	twin, _ := build(fold(twinOut))

	push := func(batch []Delta[int]) {
		subject(batch)
		twin(batch)
	}

	var base []Delta[int]
	for i := 0; i < 10; i++ {
		base = append(base, Delta[int]{i, 2 + rng.Float64()*3})
	}
	push(base)

	for cycle := 0; cycle < 300; cycle++ {
		// One transaction: one to three speculative batches.
		subjectTxn(TxnBegin)
		began := subjectOut.Clone()
		batches := make([][]Delta[int], 1+rng.Intn(3))
		for bi := range batches {
			batch := make([]Delta[int], 1+rng.Intn(3))
			for i := range batch {
				batch[i] = Delta[int]{rng.Intn(10), rng.Float64()*2 - 1}
			}
			batches[bi] = batch
			subject(batch)
		}
		if rng.Intn(2) == 0 {
			subjectTxn(TxnCommit)
			for _, batch := range batches {
				twin(batch)
			}
		} else {
			subjectTxn(TxnAbort)
			subjectOut = began
		}
		exactEqual(t, name, subjectOut, twinOut)
	}

	// Probe: identical future inputs must produce identical outputs.
	probe := []Delta[int]{{3, 0.25}, {7, -0.5}, {11, 1.5}}
	push(probe)
	exactEqual(t, name+" probe", subjectOut, twinOut)
}

func TestTxnGroupBy(t *testing.T) {
	checkTxn(t, "GroupBy", func(out Handler[weighted.Grouped[int, int]]) (func([]Delta[int]), func(TxnOp)) {
		n := GroupBy(func(x int) int { return x % 3 }, func(m []int) int { return len(m) }, out)
		return n.Apply, n.Txn
	})
}

func TestTxnShave(t *testing.T) {
	checkTxn(t, "Shave", func(out Handler[weighted.Indexed[int]]) (func([]Delta[int]), func(TxnOp)) {
		n := Shave(func(int, int) float64 { return 0.75 }, out)
		return n.Apply, n.Txn
	})
}

func TestTxnSelfJoin(t *testing.T) {
	checkTxn(t, "Join", func(out Handler[[2]int]) (func([]Delta[int]), func(TxnOp)) {
		n := Join(
			func(x int) int { return x % 3 }, func(y int) int { return y % 3 },
			func(x, y int) [2]int { return [2]int{x, y} }, out)
		return both(n), n.Txn
	})
}

// TestTxnSinkKeepsNewObservations keeps the name of the exception it
// used to pin and now pins its absence: an aborted transaction leaves no
// observation behind. A record first given weight inside the transaction
// is gone after the abort — from q, from the record list and from L1,
// whose bits are the ones Begin saw — and so is one the transaction
// brought back to zero and up again; a committed transaction forgets the
// never-released records it left at zero.
func TestTxnSinkKeepsNewObservations(t *testing.T) {
	in := newFeed[int]()
	obs := MapObservations[int]{1: 5, 2: -3, 3: 0.7}
	sink := NewNoisyCountSink[int](in, obs, []int{1}, 0.5)
	in.Push([]Delta[int]{{1, 2}, {3, 0.1}}) // |2-5| replaces |0-5|; 3 is live, never released
	before, bins := sink.L1(), sink.Bins()

	in.Txn(TxnBegin)
	in.Push([]Delta[int]{{1, 1}, {2, 4}, {3, -0.1}}) // record 2 enters, record 3 falls to zero
	if sink.Bins() != bins+1 {
		t.Errorf("sink holds %d records inside the transaction, want %d (a record at zero stays until commit)", sink.Bins(), bins+1)
	}
	in.Txn(TxnAbort)

	if got := sink.Weight(1); got != 2 {
		t.Errorf("q(1) = %v after abort, want 2", got)
	}
	if got := sink.Weight(2); got != 0 {
		t.Errorf("q(2) = %v after abort, want 0", got)
	}
	if got := sink.Weight(3); got != 0.1 {
		t.Errorf("q(3) = %v after abort, want 0.1", got)
	}
	if math.Float64bits(sink.L1()) != math.Float64bits(before) || sink.Bins() != bins {
		t.Errorf("after abort L1 = %v over %d records, want the %v over %d the transaction began with",
			sink.L1(), sink.Bins(), before, bins)
	}
	if drift := sink.Drift(); drift > 1e-15 {
		t.Errorf("maintained L1 drifts from recomputed by %v after abort", drift)
	}

	in.Txn(TxnBegin)
	in.Push([]Delta[int]{{2, 4}, {3, -0.1}, {2, -4}})
	in.Txn(TxnCommit)
	if sink.Bins() != 1 {
		t.Errorf("sink holds %d records after the commit, want only the released one", sink.Bins())
	}
	if want := math.Abs(2.0 - 5); math.Abs(sink.L1()-want) > 1e-12 {
		t.Errorf("L1 = %v after the commit, want %v", sink.L1(), want)
	}
}

// TestTxnStateMapAbortRestoresOrder pins the slice-order restoration the
// deterministic-emission invariants depend on: a swap-delete undone by
// abort must put every record back in its original slot. Runs at a size
// below posThreshold (linear-scan index, pos never built) and above it
// (built position map, which abort replay must keep in sync).
func TestTxnStateMapAbortRestoresOrder(t *testing.T) {
	for _, size := range []int{6, posThreshold + 8} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			m := new(stateMap[int])
			for i := 0; i < size; i++ {
				m.apply(i, float64(i+1))
			}
			if small, built := size <= posThreshold, m.pos != nil; small == built {
				t.Fatalf("pos built = %v at %d records, threshold %d", built, size, posThreshold)
			}
			var wantRecs []int
			var wantWs []float64
			wantRecs = append(wantRecs, m.recs...)
			wantWs = append(wantWs, m.ws...)
			wantNorm := m.norm

			var log undoLog[int]
			m.beginLog(&log)
			m.apply(1, -2)  // delete record 1 (swap-moves the tail into slot 1)
			m.apply(3, 2.5) // update
			m.apply(99, 4)  // insert
			m.apply(99, -4) // delete the tail insert
			m.apply(0, -1)  // delete record 0
			log.abort()
			m.endLog()

			if len(m.recs) != len(wantRecs) {
				t.Fatalf("recs length %d, want %d", len(m.recs), len(wantRecs))
			}
			for i := range wantRecs {
				if m.recs[i] != wantRecs[i] || m.ws[i] != wantWs[i] {
					t.Errorf("slot %d: (%v, %v), want (%v, %v)", i, m.recs[i], m.ws[i], wantRecs[i], wantWs[i])
				}
			}
			if m.norm != wantNorm {
				t.Errorf("norm %v, want %v", m.norm, wantNorm)
			}
			for i, x := range m.recs {
				if j, ok := m.index(x); !ok || j != i {
					t.Errorf("index(%v) = %d, %v, want %d, true", x, j, ok, i)
				}
			}
		})
	}
}

// TestTxnMinMax drives Intersect, whose two inputs share one table of
// weight pairs, with left and right pushes interleaved inside
// each transaction — a third of the differences retract a record's
// whole weight on one side, often while the other side holds it — and a
// twin that sees only the committed pushes, untracked. After every
// commit and every abort the two must agree on everything they emitted
// and on StateSize, and a final probe must emit alike on both: an abort
// that left any pair, or a side count, other than Begin found it would
// show in the next difference on that record. (Union, the other body on
// that table, left the executor: no analysis lowers to it.)
func TestTxnMinMax(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(Handler[int]) *IntersectNode[int]
	}{{"Intersect", Intersect[int]}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(63))
			subjectOut, twinOut := weighted.New[int](), weighted.New[int]()
			subject := tc.build(func(b []Delta[int]) { fold(subjectOut)(b) })
			twin := tc.build(fold(twinOut))

			type push struct {
				right bool
				batch []Delta[int]
			}
			apply := func(n *IntersectNode[int], p push) {
				if p.right {
					n.ApplyRight(p.batch)
				} else {
					n.ApplyLeft(p.batch)
				}
			}
			// sides mirrors the subject's input weights, so a difference
			// can retract exactly what a side holds.
			sides := [2]*weighted.Dataset[int]{weighted.New[int](), weighted.New[int]()}
			pushBoth := func(p push) {
				apply(subject, p)
				apply(twin, p)
				side := 0
				if p.right {
					side = 1
				}
				applyToReference(sides[side], p.batch)
			}
			for x := 0; x < 8; x++ {
				pushBoth(push{false, []Delta[int]{{x, 1 + rng.Float64()}}})
				pushBoth(push{true, []Delta[int]{{x, 1 + rng.Float64()}}})
			}

			for cycle := 0; cycle < 400; cycle++ {
				subject.Txn(TxnBegin)
				began := subjectOut.Clone()
				beganSides := [2]*weighted.Dataset[int]{sides[0].Clone(), sides[1].Clone()}
				pushes := make([]push, 2+rng.Intn(3))
				for i := range pushes {
					p := push{right: rng.Intn(2) == 1}
					side := sides[0]
					if p.right {
						side = sides[1]
					}
					for range 1 + rng.Intn(3) {
						x := rng.Intn(10)
						w := rng.Float64()*2 - 1
						if rng.Intn(3) == 0 {
							w = -side.Weight(x) // to zero on this side
						}
						p.batch = append(p.batch, Delta[int]{x, w})
						side.Add(x, w)
					}
					pushes[i] = p
					apply(subject, p)
				}
				if rng.Intn(2) == 0 {
					subject.Txn(TxnCommit)
					for _, p := range pushes {
						apply(twin, p)
					}
				} else {
					subject.Txn(TxnAbort)
					subjectOut, sides = began, beganSides
				}
				exactEqual(t, tc.name, subjectOut, twinOut)
				if subject.StateSize() != twin.StateSize() {
					t.Fatalf("cycle %d: StateSize %d, twin %d", cycle, subject.StateSize(), twin.StateSize())
				}
			}

			for x := 0; x < 10; x++ {
				pushBoth(push{x%2 == 0, []Delta[int]{{x, 0.5}}})
				pushBoth(push{x%2 == 1, []Delta[int]{{x, -0.25}}})
			}
			exactEqual(t, tc.name+" probe", subjectOut, twinOut)
			if subject.StateSize() != twin.StateSize() {
				t.Fatalf("probe: StateSize %d, twin %d", subject.StateSize(), twin.StateSize())
			}
		})
	}
}

// TestTxnSinkRecordEntersAndLeaves pushes a never-released record into a
// sink and back out within one transaction, among differences on records
// it already holds. Aborted, the sink must read as a twin that never saw
// the transaction; committed, as a twin pushed the same batches
// untracked — L1 bits, records held and weights — and so must both go on
// reading after the same next push.
func TestTxnSinkRecordEntersAndLeaves(t *testing.T) {
	obs := obsFunc[int](func(x int) float64 { return float64(x%5) - 1.5 })
	build := func() (*feed[int], *NoisyCountSink[int]) {
		in := newFeed[int]()
		s := NewNoisyCountSink[int](in, obs, []int{0, 1}, 0.5)
		in.Push([]Delta[int]{{0, 1}, {2, 0.5}, {3, 2}})
		return in, s
	}
	same := func(t *testing.T, what string, got, want *NoisyCountSink[int]) {
		t.Helper()
		if math.Float64bits(got.L1()) != math.Float64bits(want.L1()) || got.Bins() != want.Bins() {
			t.Fatalf("%s: L1 %v over %d records, twin %v over %d", what, got.L1(), got.Bins(), want.L1(), want.Bins())
		}
		for x := 0; x < 10; x++ {
			if got.Weight(x) != want.Weight(x) {
				t.Fatalf("%s: q(%d) = %v, twin %v", what, x, got.Weight(x), want.Weight(x))
			}
		}
	}
	batches := [][]Delta[int]{
		{{7, 1}, {2, 0.25}},
		{{3, -2}, {7, 0.5}},
		{{7, -1.5}, {0, 1}}, // 7 leaves; 3 left at zero before it
	}
	next := []Delta[int]{{7, 2}, {3, 1}, {2, -0.75}}

	for _, commit := range []bool{false, true} {
		in, subject := build()
		twinIn, twin := build()
		in.Txn(TxnBegin)
		for _, b := range batches {
			in.Push(b)
		}
		if commit {
			in.Txn(TxnCommit)
			for _, b := range batches {
				twinIn.Push(b)
			}
		} else {
			in.Txn(TxnAbort)
		}
		what := map[bool]string{false: "abort", true: "commit"}[commit]
		same(t, what, subject, twin)
		in.Push(next)
		twinIn.Push(next)
		same(t, what+", next push", subject, twin)
		if drift := subject.Drift(); drift > 1e-12 {
			t.Errorf("%s: maintained L1 drifts from recomputed by %v", what, drift)
		}
	}
}
