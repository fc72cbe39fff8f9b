package engine

import (
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Stateful operators partition their indexed state by hash — of the
// record for the element-wise operators here, of the key for GroupBy and
// Join. Each shard's state lives inside a private instance of the
// corresponding incremental operator, fed through a private
// incremental.Input; the engine's contribution is the exchange that
// routes each difference to its owning shard, the per-shard batch that
// flushes once per round, and the parallel application. Because a
// record's (or key's) entire history lands on one shard, each sub-node
// observes exactly the difference stream a serial incremental node would
// for its slice of the record space, and correctness reduces to the
// incremental engine's, which is pinned against wpinq/internal/weighted.

// shardFeed is the per-shard plumbing shared by the stateful operators:
// the private input feeding one shard's incremental sub-node and the
// reusable contiguous batch flushed into it each round.
type shardFeed[T comparable] struct {
	in    *incremental.Input[T]
	batch []incremental.Delta[T]
}

// flush pushes shard s's routed differences, if any, into the sub-node.
func (f *shardFeed[T]) flush(r *routed[T], s int, keep bool) {
	f.batch = r.gather(s, f.batch[:0])
	if len(f.batch) > 0 {
		f.in.Push(f.batch)
	}
	f.batch = incremental.Recycle(f.batch, keep)
}

// outBuffers holds the per-shard output accumulators: shard s's sub-node
// emits into outs[s] through handler(s) — the sub-node's only subscriber
// — and the node emits outs downstream once per round.
type outBuffers[U comparable] struct {
	outs [][]incremental.Delta[U]
}

func newOutBuffers[U comparable](shards int) *outBuffers[U] {
	return &outBuffers[U]{outs: make([][]incremental.Delta[U], shards)}
}

// handler returns shard s's subscription: it appends the sub-node's
// emitted differences to outs[s] — or, when the emission is an array its
// emitter has just released (incremental.Recycle, asked about the same
// array under the node's own gate, answers as it answered the sub-node)
// and outs[s] is empty, takes the array for outs[s] instead of copying
// it: a load's 10^6-record emission crosses the shard boundary as a
// slice header.
func (o *outBuffers[U]) handler(s int, gate *txnGate) incremental.Handler[U] {
	return func(b []incremental.Delta[U]) {
		if len(o.outs[s]) == 0 && incremental.Recycle(b, gate.Active()) == nil {
			o.outs[s] = b
			return
		}
		o.outs[s] = append(o.outs[s], b...)
	}
}

func (o *outBuffers[U]) reset(s int) { o.outs[s] = o.outs[s][:0] }

// ShaveNode is the output of Shave: a record-partitioned sharding of
// incremental.ShaveNode.
type ShaveNode[T comparable] struct {
	Stream[weighted.Indexed[T]]
	in    *port[T]
	r     *routed[T]
	feeds []shardFeed[T]
	subs  []*incremental.ShaveNode[T]
	out   *outBuffers[weighted.Indexed[T]]
	apply func(s int) // applies shard s's routed differences (see forN)
	gate  txnGate
}

// onTxn fans a transaction event into every shard's sub-node and
// forwards it downstream.
func (n *ShaveNode[T]) onTxn(op incremental.TxnOp) {
	if !n.gate.Enter(op) {
		return
	}
	fanTxn(n.feeds, op)
	n.emitTxn(op)
}

// Shave decomposes records into indexed slices following the weight
// sequence f (paper Section 2.8). f must be pure: shards invoke it
// concurrently.
func Shave[T comparable](src Source[T], f func(x T, i int) float64) *ShaveNode[T] {
	e := src.engine()
	n := &ShaveNode[T]{
		Stream: Stream[weighted.Indexed[T]]{e: e},
		in:     src.newPort(),
		r:      newRouted(func(x T) int { return shardOf(e, x) }),
		feeds:  make([]shardFeed[T], e.shards),
		subs:   make([]*incremental.ShaveNode[T], e.shards),
		out:    newOutBuffers[weighted.Indexed[T]](e.shards),
	}
	n.apply = func(s int) {
		n.out.reset(s)
		n.feeds[s].flush(n.r, s, n.gate.Active())
	}
	for s := range n.feeds {
		in := incremental.NewInput[T]()
		n.feeds[s].in = in
		n.subs[s] = incremental.Shave[T](in, f)
		n.subs[s].Subscribe(n.out.handler(s, &n.gate))
	}
	src.SubscribeTxn(n.onTxn)
	e.register(n)
	return n
}

// ShaveConst is Shave with a constant weight sequence.
func ShaveConst[T comparable](src Source[T], w float64) *ShaveNode[T] {
	return Shave(src, func(T, int) float64 { return w })
}

// StateSize returns the number of records indexed across all shards.
func (n *ShaveNode[T]) StateSize() int {
	total := 0
	for _, sub := range n.subs {
		total += sub.StateSize()
	}
	return total
}

func (n *ShaveNode[T]) process() {
	batches, total := n.in.drain()
	if total == 0 {
		return
	}
	n.r.route(n.e, batches, total)
	n.e.forShards(total, n.apply)
	n.emit(n.out.outs)
	n.r.recycle(n.gate.Active())
	recycle(n.out.outs, n.gate.Active())
}

// MinMaxNode is the output of Union or Intersect: a record-partitioned
// sharding of incremental.MinMaxNode.
type MinMaxNode[T comparable] struct {
	Stream[T]
	pa, pb *port[T]
	ra, rb *routed[T]
	fa, fb []shardFeed[T]
	subs   []*incremental.MinMaxNode[T]
	out    *outBuffers[T]
	apply  func(s int) // applies shard s's routed differences (see forN)
	gate   txnGate
}

// onTxn fans a transaction event into every shard's sub-node — through
// one side's input only; the sub-node's own gate treats the two private
// inputs as one node — and forwards it downstream.
func (n *MinMaxNode[T]) onTxn(op incremental.TxnOp) {
	if !n.gate.Enter(op) {
		return
	}
	fanTxn(n.fa, op)
	n.emitTxn(op)
}

// Union computes the element-wise maximum of two streams.
func Union[T comparable](a, b Source[T]) *MinMaxNode[T] {
	return minMaxNode(a, b, incremental.Union[T])
}

// Intersect computes the element-wise minimum of two streams.
func Intersect[T comparable](a, b Source[T]) *MinMaxNode[T] {
	return minMaxNode(a, b, incremental.Intersect[T])
}

func minMaxNode[T comparable](a, b Source[T],
	build func(x, y incremental.Source[T]) *incremental.MinMaxNode[T]) *MinMaxNode[T] {
	e := sameEngine(a, b)
	shard := func(x T) int { return shardOf(e, x) }
	n := &MinMaxNode[T]{
		Stream: Stream[T]{e: e},
		pa:     a.newPort(),
		pb:     b.newPort(),
		ra:     newRouted(shard),
		rb:     newRouted(shard),
		fa:     make([]shardFeed[T], e.shards),
		fb:     make([]shardFeed[T], e.shards),
		subs:   make([]*incremental.MinMaxNode[T], e.shards),
		out:    newOutBuffers[T](e.shards),
	}
	n.apply = func(s int) {
		n.out.reset(s)
		n.fa[s].flush(n.ra, s, n.gate.Active())
		n.fb[s].flush(n.rb, s, n.gate.Active())
	}
	for s := range n.subs {
		ia, ib := incremental.NewInput[T](), incremental.NewInput[T]()
		n.fa[s].in, n.fb[s].in = ia, ib
		n.subs[s] = build(ia, ib)
		n.subs[s].Subscribe(n.out.handler(s, &n.gate))
	}
	a.SubscribeTxn(n.onTxn)
	b.SubscribeTxn(n.onTxn)
	e.register(n)
	return n
}

// StateSize returns the number of records indexed across both inputs and
// all shards.
func (n *MinMaxNode[T]) StateSize() int {
	total := 0
	for _, sub := range n.subs {
		total += sub.StateSize()
	}
	return total
}

func (n *MinMaxNode[T]) process() {
	ba, ta := n.pa.drain()
	bb, tb := n.pb.drain()
	total := ta + tb
	if total == 0 {
		return
	}
	n.ra.route(n.e, ba, ta)
	n.rb.route(n.e, bb, tb)
	n.e.forShards(total, n.apply)
	n.emit(n.out.outs)
	n.ra.recycle(n.gate.Active())
	n.rb.recycle(n.gate.Active())
	recycle(n.out.outs, n.gate.Active())
}
