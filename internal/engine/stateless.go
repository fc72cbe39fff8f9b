package engine

import (
	"math"
	"slices"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Stateless operators are linear in their input: an input difference maps
// directly to an output difference with no maintained state, so each
// batch an upstream emitted is transformed into one output batch of its
// own.

// Node is a stateless operator's output: a stream of differences of type
// T with no state of its own. Transaction events pass through unchanged
// (deduplicated, so diamond topologies do not multiply them).
type Node[T comparable] struct {
	Stream[T]
	run  func()
	gate txnGate
}

func (n *Node[T]) process() { n.run() }

// onTxn forwards transaction events downstream, once each.
func (n *Node[T]) onTxn(op incremental.TxnOp) {
	if n.gate.Enter(op) {
		n.emitTxn(op)
	}
}

// mapped builds the shared skeleton of Select, Where, SelectMany and
// Except's negation: transform applies one input batch, appending to a
// reused per-batch output buffer — which the operators whose output is
// bounded by the batch size grow from it first (SelectMany's fan-out is
// f's).
func mapped[T, U comparable](src Source[T], op string, transform func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U]) *Node[U] {
	e := src.engine()
	in := src.newPort()
	n := &Node[U]{Stream: Stream[U]{e: e, prof: NodeProfile{Op: op}}}
	var outs [][]incremental.Delta[U]
	n.run = func() {
		if in.total == 0 {
			return
		}
		n.ran(in.total)
		for len(outs) < len(in.batches) {
			outs = append(outs, nil)
		}
		for i, b := range in.batches {
			outs[i] = transform(b, outs[i][:0])
			n.emit(outs[i])
		}
		keep := n.gate.Active()
		for i := range outs {
			outs[i] = incremental.Recycle(outs[i], keep)
		}
		in.reset()
	}
	src.SubscribeTxn(n.onTxn)
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

// SelectMany maps each record to a weighted dataset rescaled to at most
// unit norm (paper Section 2.4). f must be pure and deterministic: it is
// re-invoked on every difference touching the record.
func SelectMany[T, U comparable](src Source[T], f func(T) *weighted.Dataset[U]) *Node[U] {
	return mapped(src, "selectmany", func(in []incremental.Delta[T], out []incremental.Delta[U]) []incremental.Delta[U] {
		for _, d := range in {
			fx := f(d.Record)
			scale := d.Weight / math.Max(1, fx.Norm())
			fx.Range(func(y U, wy float64) {
				out = append(out, incremental.Delta[U]{Record: y, Weight: wy * scale})
			})
		}
		return out
	})
}

// SelectManySlice is SelectMany for unit-weight output lists.
func SelectManySlice[T, U comparable](src Source[T], f func(T) []U) *Node[U] {
	return SelectMany(src, func(x T) *weighted.Dataset[U] { return weighted.FromItems(f(x)...) })
}

// Concat adds two streams: differences pass through from either input.
func Concat[T comparable](a, b Source[T]) *Node[T] {
	e := sameEngine(a, b)
	pa, pb := a.newPort(), b.newPort()
	n := &Node[T]{Stream: Stream[T]{e: e, prof: NodeProfile{Op: "concat"}}}
	n.run = func() {
		if total := pa.total + pb.total; total > 0 {
			n.ran(total)
		}
		for _, b := range pa.batches {
			n.emit(b)
		}
		for _, b := range pb.batches {
			n.emit(b)
		}
		pa.reset()
		pb.reset()
	}
	a.SubscribeTxn(n.onTxn)
	b.SubscribeTxn(n.onTxn)
	e.register(n)
	return n
}

// Except subtracts stream b from stream a: differences from b pass
// through negated.
func Except[T comparable](a, b Source[T]) *Node[T] {
	return Concat(a, mapped(b, "negate", func(in []incremental.Delta[T], out []incremental.Delta[T]) []incremental.Delta[T] {
		out = slices.Grow(out, len(in))
		for _, d := range in {
			out = append(out, incremental.Delta[T]{Record: d.Record, Weight: -d.Weight})
		}
		return out
	}))
}
