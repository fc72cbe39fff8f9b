package engine

import (
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Stateful operators partition their indexed state by hash — of the
// record for Shave, Union and Intersect, of the key for GroupBy and Join.
// Each shard's state is a private operator body from
// wpinq/internal/incremental, a single-threaded state machine the node
// calls; the engine's contribution is the exchange that routes each
// difference to its owning shard, the per-shard batch applied once per
// round, and the parallel application. Because a record's (or key's)
// entire history lands on one shard, each body observes exactly the
// difference stream one unsharded body would for its slice of the record
// space, and correctness reduces to the operator bodies', which are pinned
// against wpinq/internal/weighted.
//
// That protocol — port, route, apply, take, emit, recycle, transaction
// fan — is written once, in sharded, over one or two inlets. An operator
// is an owner function per input (which shard a difference belongs to)
// and a constructor for one shard's body.

// body is what the wiring needs of one shard's operator body, whatever
// its inputs.
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

// inlet is one input of a sharded operator, with its record type erased
// so that one node wires inputs of different types.
type inlet interface {
	// pending reports how many differences the upstream emitted this round.
	pending() int
	// route buckets them by owning shard.
	route(e *Engine)
	// flush applies shard s's bucket, if any, to that shard's body.
	flush(s int, keep bool)
	// release ends the round: a load's oversized buckets go (Recycle), and
	// the consumed batches are forgotten.
	release(keep bool)
}

// inletOf is the inlet of a stream of T: the port its upstream emits
// into, the hash exchange, and per shard the body's apply method for this
// input with the reusable contiguous batch gathered for it.
type inletOf[T comparable] struct {
	port  *port[T]
	r     *routed[T]
	apply []func(batch []incremental.Delta[T])
	batch [][]incremental.Delta[T]
}

// newInlet subscribes a new inlet to src; owner names the shard a
// record's differences belong to. The caller fills apply once the bodies
// exist.
func newInlet[T comparable](src Source[T], owner func(T) int) *inletOf[T] {
	shards := src.engine().shards
	return &inletOf[T]{
		port:  src.newPort(),
		r:     newRouted(owner),
		apply: make([]func([]incremental.Delta[T]), shards),
		batch: make([][]incremental.Delta[T], shards),
	}
}

func (in *inletOf[T]) pending() int { return in.port.total }

func (in *inletOf[T]) route(e *Engine) { in.r.route(e, in.port.batches, in.port.total) }

func (in *inletOf[T]) flush(s int, keep bool) {
	b := in.r.gather(s, in.batch[s][:0])
	if len(b) > 0 {
		in.apply[s](b)
	}
	in.batch[s] = incremental.Recycle(b, keep)
}

func (in *inletOf[T]) release(keep bool) {
	in.r.recycle(keep)
	in.port.reset()
}

// sharded is a stateful operator's node: inlets in flush order (a binary
// operator's left before its right), one body per shard, and the
// per-shard output buffers the bodies emit into, emitted downstream once
// per round.
type sharded[U comparable, S body] struct {
	Stream[U]
	inlets []inlet
	subs   []S
	outs   [][]incremental.Delta[U]
	apply  func(s int) // applies shard s's routed differences (see forN)
	gate   txnGate
}

// newSharded wires a node over inlets whose shard-s body is build(out),
// out being where that body's emissions go. The caller subscribes its
// onTxn to every upstream.
func newSharded[U comparable, S body](e *Engine, op string, build func(out incremental.Handler[U]) S, inlets ...inlet) *sharded[U, S] {
	n := &sharded[U, S]{
		Stream: Stream[U]{e: e, prof: NodeProfile{Op: op}},
		inlets: inlets,
		subs:   make([]S, e.shards),
		outs:   make([][]incremental.Delta[U], e.shards),
	}
	n.apply = func(s int) {
		n.outs[s] = n.outs[s][:0]
		for _, in := range n.inlets {
			in.flush(s, n.gate.Active())
		}
	}
	for s := range n.subs {
		n.subs[s] = build(n.collect(s))
	}
	e.register(n)
	return n
}

// collect returns the handler shard s's body is built with: it appends
// the body's emitted differences to outs[s] — or, when the emission is an
// array its emitter has just released (incremental.Recycle, asked about
// the same array under the node's own gate, answers as it answered the
// body) and outs[s] is empty, takes the array for outs[s] instead of
// copying it: a load's 10^6-record emission crosses the shard boundary as
// a slice header.
func (n *sharded[U, S]) collect(s int) incremental.Handler[U] {
	return func(b []incremental.Delta[U]) {
		if len(n.outs[s]) == 0 && incremental.Recycle(b, n.gate.Active()) == nil {
			n.outs[s] = b
			return
		}
		n.outs[s] = append(n.outs[s], b...)
	}
}

func (n *sharded[U, S]) process() {
	total := 0
	for _, in := range n.inlets {
		total += in.pending()
	}
	if total == 0 {
		return
	}
	n.ran(total)
	for _, in := range n.inlets {
		in.route(n.e)
	}
	n.e.forN(total, n.e.shards, n.apply)
	n.emit(n.outs)
	keep := n.gate.Active()
	for _, in := range n.inlets {
		in.release(keep)
	}
	recycle(n.outs, keep)
}

// onTxn tells every shard's body about a transaction event, once — the
// node's gate has dropped the redundant deliveries — and forwards it
// downstream.
func (n *sharded[U, S]) onTxn(op incremental.TxnOp) {
	if !n.gate.Enter(op) {
		return
	}
	for _, sub := range n.subs {
		sub.Txn(op)
	}
	n.emitTxn(op)
}

// StateSize returns the number of records the operator indexes, summed
// over shards: its memory footprint in records.
func (n *sharded[U, S]) StateSize() int {
	total := 0
	for _, sub := range n.subs {
		total += sub.StateSize()
	}
	return total
}

func (n *sharded[U, S]) profile() NodeProfile {
	p := n.prof
	p.State = n.StateSize()
	return p
}

// unary wires a one-input operator: differences of src go to the shard
// owner names, whose body build constructs.
func unary[T, U comparable, S unaryBody[T]](src Source[T], op string, owner func(T) int, build func(out incremental.Handler[U]) S) *sharded[U, S] {
	in := newInlet(src, owner)
	n := newSharded(src.engine(), op, build, in)
	for s, sub := range n.subs {
		in.apply[s] = sub.Apply
	}
	src.SubscribeTxn(n.onTxn)
	return n
}

// binary wires a two-input operator the same way, each side routed by
// its own owner function.
func binary[A, B, U comparable, S binaryBody[A, B]](
	a Source[A], b Source[B], op string, ownerA func(A) int, ownerB func(B) int,
	build func(out incremental.Handler[U]) S,
) *sharded[U, S] {
	e := sameEngine(a, b)
	ia, ib := newInlet(a, ownerA), newInlet(b, ownerB)
	n := newSharded(e, op, build, ia, ib)
	for s, sub := range n.subs {
		ia.apply[s], ib.apply[s] = sub.ApplyLeft, sub.ApplyRight
	}
	a.SubscribeTxn(n.onTxn)
	b.SubscribeTxn(n.onTxn)
	return n
}

// The operators' node types: each is the one wiring over its own body
// type, so every node has StateSize.
type (
	// ShaveNode is the output of Shave.
	ShaveNode[T comparable] = sharded[weighted.Indexed[T], *incremental.ShaveNode[T]]
	// MinMaxNode is the output of Union or Intersect.
	MinMaxNode[T comparable] = sharded[T, *incremental.MinMaxNode[T]]
	// GroupByNode is the output of GroupBy.
	GroupByNode[T, K, R comparable] = sharded[weighted.Grouped[K, R], *incremental.GroupByNode[T, K, R]]
)

// Shave decomposes records into indexed slices following the weight
// sequence f (paper Section 2.8), partitioned by record. f must be pure:
// shards invoke it concurrently.
func Shave[T comparable](src Source[T], f func(x T, i int) float64) *ShaveNode[T] {
	e := src.engine()
	return unary(src, "shave", func(x T) int { return shardOf(e, x) },
		func(out incremental.Handler[weighted.Indexed[T]]) *incremental.ShaveNode[T] {
			return incremental.Shave(f, out)
		})
}

// ShaveConst is Shave with a constant weight sequence.
func ShaveConst[T comparable](src Source[T], w float64) *ShaveNode[T] {
	return Shave(src, func(T, int) float64 { return w })
}

// Union computes the element-wise maximum of two streams, partitioned by
// record.
func Union[T comparable](a, b Source[T]) *MinMaxNode[T] {
	return minMax(a, b, "union", incremental.Union[T])
}

// Intersect computes the element-wise minimum of two streams.
func Intersect[T comparable](a, b Source[T]) *MinMaxNode[T] {
	return minMax(a, b, "intersect", incremental.Intersect[T])
}

func minMax[T comparable](a, b Source[T], op string, build func(out incremental.Handler[T]) *incremental.MinMaxNode[T]) *MinMaxNode[T] {
	e := sameEngine(a, b)
	owner := func(x T) int { return shardOf(e, x) }
	return binary(a, b, op, owner, owner, build)
}

// GroupBy groups records by key and re-reduces weight-ordered prefixes
// (paper Section 2.5). Differences are routed by the hash of their
// record's key, so a key's entire group lives on one shard and prefix
// re-derivation stays shard-local. key and reduce must be pure: shards
// invoke them concurrently.
func GroupBy[T, K, R comparable](src Source[T], key func(T) K, reduce func([]T) R) *GroupByNode[T, K, R] {
	e := src.engine()
	return unary(src, "groupby", func(x T) int { return shardOf(e, key(x)) },
		func(out incremental.Handler[weighted.Grouped[K, R]]) *incremental.GroupByNode[T, K, R] {
			return incremental.GroupBy(key, reduce, out)
		})
}

// JoinNode is the output of Join: the wiring plus the per-shard bodies'
// fast-path switch and counters.
type JoinNode[A, B, K, R comparable] struct {
	*sharded[R, *incremental.JoinNode[A, B, K, R]]
}

// Join is wPINQ's normalized join (paper Section 2.7). Each left
// difference is routed by hash of keyA and each right difference by hash
// of keyB, so both sides of any key — and the key's group norms,
// denominators, and outer products — live on one shard, which keeps the
// join's norm-unchanged fast path. keyA, keyB and reduce must be pure:
// shards invoke them concurrently.
func Join[A, B, K, R comparable](
	a Source[A], b Source[B], keyA func(A) K, keyB func(B) K, reduce func(A, B) R,
) JoinNode[A, B, K, R] {
	return join(a, b, keyA, keyB, reduce, incremental.Join[A, B, K, R])
}

// JoinDistinct is Join for a reduce under which no two matching pairs
// give the same record (incremental.JoinDistinct): a load's outer
// product is emitted without merging. The results are Join's, bit for
// bit; a reduce that can collapse pairs must use Join.
func JoinDistinct[A, B, K, R comparable](
	a Source[A], b Source[B], keyA func(A) K, keyB func(B) K, reduce func(A, B) R,
) JoinNode[A, B, K, R] {
	return join(a, b, keyA, keyB, reduce, incremental.JoinDistinct[A, B, K, R])
}

func join[A, B, K, R comparable](
	a Source[A], b Source[B], keyA func(A) K, keyB func(B) K, reduce func(A, B) R,
	body func(func(A) K, func(B) K, func(A, B) R, incremental.Handler[R]) *incremental.JoinNode[A, B, K, R],
) JoinNode[A, B, K, R] {
	e := sameEngine(a, b)
	return JoinNode[A, B, K, R]{binary(a, b, "join",
		func(x A) int { return shardOf(e, keyA(x)) },
		func(y B) int { return shardOf(e, keyB(y)) },
		func(out incremental.Handler[R]) *incremental.JoinNode[A, B, K, R] {
			return body(keyA, keyB, reduce, out)
		})}
}

// SetFastPath toggles the norm-unchanged optimization on every shard
// (default on). Results are identical either way.
func (n JoinNode[A, B, K, R]) SetFastPath(on bool) {
	for _, sub := range n.subs {
		sub.SetFastPath(on)
	}
}

// FastKeys returns the number of key updates resolved via the fast path,
// summed over shards.
func (n JoinNode[A, B, K, R]) FastKeys() (total int64) {
	for _, sub := range n.subs {
		total += sub.FastKeys()
	}
	return total
}

// SlowKeys returns the number of key updates that required rescaling,
// summed over shards.
func (n JoinNode[A, B, K, R]) SlowKeys() (total int64) {
	for _, sub := range n.subs {
		total += sub.SlowKeys()
	}
	return total
}
