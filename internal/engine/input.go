package engine

import (
	"wpinq/internal/incremental"

	"wpinq/internal/weighted"
)

// Input is the root of a dataflow graph: the point where dataset changes
// enter the computation. It satisfies mcmc.Input.
type Input[T comparable] struct {
	Stream[T]
	pending []incremental.Delta[T]
	pushes  uint64
}

// NewInput returns a new dataflow input registered with e. Every input
// and operator of one graph must share one engine.
func NewInput[T comparable](e *Engine) *Input[T] {
	in := &Input[T]{Stream: newStream[T](e, "input")}
	e.register(in)
	return in
}

// process emits the batch pushed this round, if any.
func (in *Input[T]) process() {
	in.emit(in.pending)
	in.pending = nil // the caller's batch: see port.take
}

// Push propagates a batch of differences through the graph as one round.
// When Push returns, every sink reflects the change. The batch is read by
// the engine only during the call; the caller keeps ownership afterward.
func (in *Input[T]) Push(batch []incremental.Delta[T]) {
	in.pushes++
	if len(batch) > 0 {
		in.pending = batch
		in.ran(len(batch)) // an input takes what it emits
	}
	in.e.run(len(batch))
}

// Pushes returns the number of Push calls so far: the propagation
// counter (each Push schedules one engine round). Transaction events are
// not propagations and are not counted.
func (in *Input[T]) Pushes() uint64 { return in.pushes }

// Begin opens the engine's transaction: pushes until Commit or Abort are
// speculative, with every stateful node's body logging the pre-image of
// the state it overwrites. A Begin inside a transaction is dropped. The
// engine must be quiescent (between pushes), which the single-goroutine
// API contract guarantees.
func (in *Input[T]) Begin() { in.e.tell(incremental.TxnBegin) }

// Commit keeps the speculative pushes and discards the undo logs. A
// Commit outside a transaction is dropped.
func (in *Input[T]) Commit() { in.e.tell(incremental.TxnCommit) }

// Abort restores every stateful node and sink to its pre-transaction
// state in O(touched keys), without a second propagation. An Abort
// outside a transaction is dropped.
func (in *Input[T]) Abort() { in.e.tell(incremental.TxnAbort) }

// PushDataset pushes an entire weighted dataset as one batch: the idiom
// for loading initial data into a freshly built graph. The batch is built
// in canonical (weighted.PairsSorted) order rather than the dataset's
// insertion order, so the bulk load — and every float accumulated
// downstream of it — depends on the dataset's contents alone, not on how
// it was built. The sort is a one-time load cost.
func (in *Input[T]) PushDataset(d *weighted.Dataset[T]) {
	batch := make([]incremental.Delta[T], 0, d.Len())
	for _, p := range d.PairsSorted() {
		batch = append(batch, incremental.Delta[T]{Record: p.Record, Weight: p.Weight})
	}
	in.Push(batch)
}
