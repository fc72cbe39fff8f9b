package engine

import (
	"math"
	"slices"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Stateless operators are linear in their input: an input difference maps
// directly to an output difference with no maintained state, so a batch
// can be transformed as soon as it is emitted. A stateless node is a push
// consumer of its upstream (see Stream): it runs on each batch the
// upstream emits, on the emitting goroutine, and sends what it makes on to
// its own push consumers at once. Only its stateful consumers, which take
// one batch a round, make it keep the round's output whole, for its
// process to hand to their ports.

// Node is a stateless operator's output: a stream of differences of type
// T with no state of its own, and so no part in a transaction.
type Node[T comparable] struct {
	Stream[T]
	in int // differences taken this round, counted by process
	// out is the round's output when the node has ports, and otherwise
	// the last batch's, reused for the next.
	out []incremental.Delta[T]
}

// process counts the round, if the node took anything in it, and hands
// the round's output to the ports.
func (n *Node[T]) process() {
	if n.in == 0 {
		return
	}
	n.ran(n.in)
	n.in = 0
	n.hand(n.out)
	n.out = incremental.Recycle(n.out, n.e.inTxn)
}

// mapped builds the shared skeleton of Select, Where and
// SelectManySlice: transform applies one input batch, appending to the
// node's output buffer — which the operators whose output is bounded by
// the batch size grow from it first (SelectManySlice's fan-out is f's).
func mapped[T, U comparable](src Source[T], op string, transform func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U]) *Node[U] {
	n := &Node[U]{Stream: newStream[U](src.engine(), op)}
	src.newPush(n, func(b []incremental.Delta[T]) {
		n.in += len(b)
		if len(n.ports) == 0 {
			n.out = n.out[:0]
		}
		start := len(n.out)
		n.out = transform(b, n.out)
		n.send(n.out[start:])
	})
	src.engine().register(n)
	return n
}

// Select applies f to each record, preserving weights. f must be pure.
func Select[T, U comparable](src Source[T], f func(T) U) *Node[U] {
	return mapped(src, "select", func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U] {
		out = slices.Grow(out, len(in))
		for _, d := range in {
			out = append(out, incremental.Delta[U]{Record: f(d.Record), Weight: d.Weight})
		}
		return out
	})
}

// Where filters records by p. p must be pure.
func Where[T comparable](src Source[T], p func(T) bool) *Node[T] {
	return mapped(src, "where", func(in []incremental.Delta[T], out []incremental.Delta[T]) []incremental.Delta[T] {
		out = slices.Grow(out, len(in))
		for _, d := range in {
			if p(d.Record) {
				out = append(out, d)
			}
		}
		return out
	})
}

// SelectManySlice maps each record to the unit-weight dataset of the
// list f returns, rescaled to at most unit norm (paper Section 2.4). f
// must be pure and deterministic: it is re-invoked on every difference
// touching the record.
func SelectManySlice[T, U comparable](src Source[T], f func(T) []U) *Node[U] {
	return mapped(src, "selectmany", func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U] {
		for _, d := range in {
			fx := weighted.FromItems(f(d.Record)...)
			scale := d.Weight / math.Max(1, fx.Norm())
			fx.Range(func(y U, wy float64) {
				out = append(out, incremental.Delta[U]{Record: y, Weight: wy * scale})
			})
		}
		return out
	})
}
