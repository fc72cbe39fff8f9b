package engine

import (
	"math"
	"slices"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Stateless operators are linear in their input: an input difference maps
// directly to an output difference with no maintained state, so the batch
// an upstream emitted is transformed into one output batch.

// Node is a stateless operator's output: a stream of differences of type
// T with no state of its own, and so no part in a transaction.
type Node[T comparable] struct {
	Stream[T]
	run func()
}

func (n *Node[T]) process() { n.run() }

// mapped builds the shared skeleton of Select, Where and
// SelectManySlice: transform applies the round's input batch, appending
// to a reused output buffer — which the operators whose output is
// bounded by the batch size grow from it first (SelectManySlice's
// fan-out is f's).
func mapped[T, U comparable](src Source[T], op string, transform func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U]) *Node[U] {
	e := src.engine()
	in := src.newPort()
	n := &Node[U]{Stream: Stream[U]{e: e, prof: NodeProfile{Op: op}}}
	var out []incremental.Delta[U]
	n.run = func() {
		b := in.take()
		if len(b) == 0 {
			return
		}
		n.ran(len(b))
		out = transform(b, out)
		n.emit(out)
		out = incremental.Recycle(out, e.inTxn)
	}
	e.register(n)
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
