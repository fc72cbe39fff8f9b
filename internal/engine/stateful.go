package engine

import (
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Stateful operators index what they have seen — by record for Shave and
// Intersect, by key for GroupBy and Join. A node's state is one
// operator body from wpinq/internal/incremental, a single-threaded state
// machine the node calls; the engine's contribution is the per-round
// batch of each input and the scheduling. Correctness therefore reduces
// to the operator bodies', which are pinned against
// wpinq/internal/weighted.
//
// That protocol — port, apply, take, emit, recycle — is written once, in
// stateful, over one or two inlets. An operator is a constructor for its
// body.

// body is what the wiring needs of an operator body, whatever its inputs.
type body interface {
	Txn(op incremental.TxnOp)
	StateSize() int
}

// unaryBody is a body with one input.
type unaryBody[T comparable] interface {
	body
	Apply(batch []incremental.Delta[T])
}

// binaryBody is a body with two.
type binaryBody[A, B comparable] interface {
	body
	ApplyLeft(batch []incremental.Delta[A])
	ApplyRight(batch []incremental.Delta[B])
}

// inlet is one input of a stateful operator, with its record type erased
// so that one node wires inputs of different types.
type inlet interface {
	// flush hands the round's batch, if the upstream emitted one, to the
	// body, empties the port, and returns the batch's length.
	flush() int
}

// inletOf is the inlet of a stream of T: the port its upstream emits
// into and the body's apply method for this input.
type inletOf[T comparable] struct {
	port  *port[T]
	apply func(batch []incremental.Delta[T])
}

func (in *inletOf[T]) flush() int {
	b := in.port.take()
	if len(b) > 0 {
		in.apply(b)
	}
	return len(b)
}

// stateful is a stateful operator's node: inlets in flush order (a binary
// operator's left before its right), its body, and the output buffer the
// body emits into, emitted downstream once per round.
type stateful[U comparable, S body] struct {
	Stream[U]
	inlets []inlet
	body   S
	out    []incremental.Delta[U]
}

// newStateful wires a node whose body is build(out), out being where the
// body's emissions go, and registers the body as a transaction party.
// The caller fills each inlet's apply.
func newStateful[U comparable, S body](e *Engine, op string, build func(out incremental.Handler[U]) S, inlets ...inlet) *stateful[U, S] {
	n := &stateful[U, S]{Stream: Stream[U]{e: e, prof: NodeProfile{Op: op}}, inlets: inlets}
	n.body = build(n.collect)
	e.parties = append(e.parties, n.body.Txn)
	e.register(n)
	return n
}

// collect is the handler the body is built with: it appends the body's
// emitted differences to out — or, when the emission is an array its
// emitter has just released (incremental.Recycle, asked about the same
// array under the same transaction flag, answers as it answered the
// body) and out is empty, takes the array for out instead of copying it:
// a load's 10^6-record emission leaves the node as a slice header.
func (n *stateful[U, S]) collect(b []incremental.Delta[U]) {
	if len(n.out) == 0 && incremental.Recycle(b, n.e.inTxn) == nil {
		n.out = b
		return
	}
	n.out = append(n.out, b...)
}

func (n *stateful[U, S]) process() {
	total := 0
	for _, in := range n.inlets {
		total += in.flush()
	}
	if total == 0 {
		return
	}
	n.ran(total)
	n.emit(n.out)
	n.out = incremental.Recycle(n.out, n.e.inTxn)
}

// StateSize returns the number of records the operator indexes: its
// memory footprint in records.
func (n *stateful[U, S]) StateSize() int { return n.body.StateSize() }

func (n *stateful[U, S]) profile() NodeProfile {
	p := n.prof
	p.State = n.StateSize()
	return p
}

// unary wires a one-input operator over the body build constructs.
func unary[T, U comparable, S unaryBody[T]](src Source[T], op string, build func(out incremental.Handler[U]) S) *stateful[U, S] {
	in := &inletOf[T]{port: src.newPort()}
	n := newStateful(src.engine(), op, build, in)
	in.apply = n.body.Apply
	return n
}

// binary wires a two-input operator the same way.
func binary[A, B, U comparable, S binaryBody[A, B]](a Source[A], b Source[B], op string, build func(out incremental.Handler[U]) S) *stateful[U, S] {
	e := sameEngine(a, b)
	ia, ib := &inletOf[A]{port: a.newPort()}, &inletOf[B]{port: b.newPort()}
	n := newStateful(e, op, build, ia, ib)
	ia.apply, ib.apply = n.body.ApplyLeft, n.body.ApplyRight
	return n
}

// The operators' node types: each is the one wiring over its own body
// type, so every node has StateSize.
type (
	// ShaveNode is the output of ShaveConst.
	ShaveNode[T comparable] = stateful[weighted.Indexed[T], *incremental.ShaveNode[T]]
	// IntersectNode is the output of Intersect.
	IntersectNode[T comparable] = stateful[T, *incremental.IntersectNode[T]]
	// GroupByNode is the output of GroupBy.
	GroupByNode[T, K, R comparable] = stateful[weighted.Grouped[K, R], *incremental.GroupByNode[T, K, R]]
	// JoinNode is the output of Join or JoinDistinct.
	JoinNode[A, B, K, R comparable] = stateful[R, *incremental.JoinNode[A, B, K, R]]
)

// ShaveConst decomposes records into indexed slices of weight w (paper
// Section 2.8, with a constant weight sequence).
func ShaveConst[T comparable](src Source[T], w float64) *ShaveNode[T] {
	return unary(src, "shave", func(out incremental.Handler[weighted.Indexed[T]]) *incremental.ShaveNode[T] {
		return incremental.Shave(func(T, int) float64 { return w }, out)
	})
}

// Intersect computes the element-wise minimum of two streams.
func Intersect[T comparable](a, b Source[T]) *IntersectNode[T] {
	return binary(a, b, "intersect", incremental.Intersect[T])
}

// GroupBy groups records by key and re-reduces weight-ordered prefixes
// (paper Section 2.5). key and reduce must be pure.
func GroupBy[T, K, R comparable](src Source[T], key func(T) K, reduce func([]T) R) *GroupByNode[T, K, R] {
	return unary(src, "groupby", func(out incremental.Handler[weighted.Grouped[K, R]]) *incremental.GroupByNode[T, K, R] {
		return incremental.GroupBy(key, reduce, out)
	})
}

// Join is wPINQ's normalized join (paper Section 2.7). keyA, keyB and
// reduce must be pure.
func Join[A, B, K, R comparable](
	a Source[A], b Source[B], keyA func(A) K, keyB func(B) K, reduce func(A, B) R,
) *JoinNode[A, B, K, R] {
	return join(a, b, keyA, keyB, reduce, incremental.Join[A, B, K, R])
}

// JoinDistinct is Join for a reduce under which no two matching pairs
// give the same record (incremental.JoinDistinct): a load's outer
// product is emitted without merging. The results are Join's, bit for
// bit; a reduce that can collapse pairs must use Join.
func JoinDistinct[A, B, K, R comparable](
	a Source[A], b Source[B], keyA func(A) K, keyB func(B) K, reduce func(A, B) R,
) *JoinNode[A, B, K, R] {
	return join(a, b, keyA, keyB, reduce, incremental.JoinDistinct[A, B, K, R])
}

func join[A, B, K, R comparable](
	a Source[A], b Source[B], keyA func(A) K, keyB func(B) K, reduce func(A, B) R,
	body func(func(A) K, func(B) K, func(A, B) R, incremental.Handler[R]) *incremental.JoinNode[A, B, K, R],
) *JoinNode[A, B, K, R] {
	return binary(a, b, "join", func(out incremental.Handler[R]) *incremental.JoinNode[A, B, K, R] {
		return body(keyA, keyB, reduce, out)
	})
}
