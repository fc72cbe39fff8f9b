package incremental

import (
	"math/rand"

	"wpinq/internal/weighted"
)

// What the tests of this package drive. An operator body is built with
// the handler its output goes to and called directly — Apply (ApplyLeft,
// ApplyRight) and Txn — which is how the engine calls it; tests fold what
// it emits into a weighted.Dataset. Graphs of more than one operator are
// the engine's business and are tested through it (graph_test.go).

const eqTol = 1e-8

// fold returns a handler that accumulates emitted differences into d.
func fold[T comparable](d *weighted.Dataset[T]) Handler[T] {
	return func(batch []Delta[T]) {
		for _, x := range batch {
			d.Add(x.Record, x.Weight)
		}
	}
}

// both applies a batch to the two sides of a self-join, left before
// right: the order the engine flushes a binary node's inlets in.
func both[T, K, R comparable](j *JoinNode[T, T, K, R]) func([]Delta[T]) {
	return func(batch []Delta[T]) {
		j.ApplyLeft(batch)
		j.ApplyRight(batch)
	}
}

// streamedJoin builds a distinct join whose receiver takes a load in
// any number of batches, as an engine node that streams does.
func streamedJoin[A, B, K, R comparable](keyA func(A) K, keyB func(B) K, reduce func(A, B) R, out Handler[R]) *JoinNode[A, B, K, R] {
	return JoinDistinct(keyA, keyB, reduce, out, func() bool { return true })
}

// feed is the stub Source the sink tests push through: one handler, one
// control handler, no fan-out. Push drops empty batches, as every stream
// does.
type feed[T comparable] struct {
	h   Handler[T]
	txn func(TxnOp)
}

func (f *feed[T]) Subscribe(h Handler[T])     { f.h = h }
func (f *feed[T]) SubscribeTxn(t func(TxnOp)) { f.txn = t }
func (f *feed[T]) Push(batch []Delta[T])      { f.h.send(batch) }
func (f *feed[T]) Txn(op TxnOp)               { f.txn(op) }
func newFeed[T comparable]() *feed[T]         { return &feed[T]{} }

// randBatch produces a batch of nb random differences over records [0, dom).
func randBatch(rng *rand.Rand, dom, nb int) []Delta[int] {
	batch := make([]Delta[int], nb)
	for i := range batch {
		w := rng.NormFloat64() * 2
		if rng.Intn(4) == 0 {
			w = float64(rng.Intn(5) - 2) // exact integers, incl. 0
		}
		batch[i] = Delta[int]{rng.Intn(dom), w}
	}
	return batch
}

// applyToReference mirrors a batch into a reference dataset.
func applyToReference(ref *weighted.Dataset[int], batch []Delta[int]) {
	for _, d := range batch {
		ref.Add(d.Record, d.Weight)
	}
}
