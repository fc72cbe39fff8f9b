package incremental

import (
	"math"
	"slices"

	"wpinq/internal/weighted"
)

// Stateless operators (Appendix B): Select, Where, SelectMany, Concat and
// Except are linear in their input, so an input difference maps directly to
// an output difference with no maintained state.

// Node is a plain operator output: a stream of differences of type T.
// Stateless nodes hold no state to log or restore; they forward
// transaction events downstream unchanged (deduplicated, so diamond
// topologies do not multiply events).
type Node[T comparable] struct {
	Stream[T]
	gate TxnGate
}

// onTxn forwards transaction events downstream, once each.
func (n *Node[T]) onTxn(op TxnOp) {
	if n.gate.Enter(op) {
		n.emitTxn(op)
	}
}

// Select incrementally applies f to each record, preserving weights.
// The output buffer is owned by the node and reused across batches
// (see Stream.flush); like every operator whose output is bounded by its
// input, it is sized from the batch before the loop, so a load's output
// is allocated once rather than regrown on the way up.
func Select[T, U comparable](src Source[T], f func(T) U) *Node[U] {
	n := &Node[U]{}
	var out []Delta[U]
	src.Subscribe(func(batch []Delta[T]) {
		out = slices.Grow(out, len(batch))
		for _, d := range batch {
			out = append(out, Delta[U]{f(d.Record), d.Weight})
		}
		out = n.flush(out, n.gate.Active())
	})
	forwardTxn(src, n.onTxn)
	return n
}

// Where incrementally filters records by p.
func Where[T comparable](src Source[T], p func(T) bool) *Node[T] {
	n := &Node[T]{}
	var out []Delta[T]
	src.Subscribe(func(batch []Delta[T]) {
		out = slices.Grow(out, len(batch))
		for _, d := range batch {
			if p(d.Record) {
				out = append(out, d)
			}
		}
		out = n.flush(out, n.gate.Active())
	})
	forwardTxn(src, n.onTxn)
	return n
}

// SelectMany incrementally maps each record to a weighted dataset rescaled
// to at most unit norm. f must be deterministic: it is re-invoked on every
// difference touching the record.
func SelectMany[T, U comparable](src Source[T], f func(T) *weighted.Dataset[U]) *Node[U] {
	n := &Node[U]{}
	var out []Delta[U]
	src.Subscribe(func(batch []Delta[T]) {
		for _, d := range batch {
			fx := f(d.Record)
			scale := d.Weight / math.Max(1, fx.Norm())
			fx.Range(func(y U, wy float64) {
				out = append(out, Delta[U]{y, wy * scale})
			})
		}
		out = n.flush(out, n.gate.Active())
	})
	forwardTxn(src, n.onTxn)
	return n
}

// SelectManySlice is SelectMany for unit-weight output lists.
func SelectManySlice[T, U comparable](src Source[T], f func(T) []U) *Node[U] {
	return SelectMany(src, func(x T) *weighted.Dataset[U] { return weighted.FromItems(f(x)...) })
}

// Concat incrementally adds two streams: differences pass through from
// either input.
func Concat[T comparable](a, b Source[T]) *Node[T] {
	n := &Node[T]{}
	pass := func(batch []Delta[T]) { n.emit(batch) }
	a.Subscribe(pass)
	b.Subscribe(pass)
	forwardTxn(a, n.onTxn)
	forwardTxn(b, n.onTxn)
	return n
}

// Except incrementally subtracts stream b from stream a: differences from b
// pass through negated.
func Except[T comparable](a, b Source[T]) *Node[T] {
	n := &Node[T]{}
	a.Subscribe(func(batch []Delta[T]) { n.emit(batch) })
	var out []Delta[T]
	b.Subscribe(func(batch []Delta[T]) {
		out = slices.Grow(out, len(batch))
		for _, d := range batch {
			out = append(out, Delta[T]{d.Record, -d.Weight})
		}
		out = n.flush(out, n.gate.Active())
	})
	forwardTxn(a, n.onTxn)
	forwardTxn(b, n.onTxn)
	return n
}
