// Package engine is the executor of wPINQ's incremental dataflow (paper
// Section 4.3): the graph of inputs, operators and sinks a query is built
// as, the round scheduler that runs it, and the sharding that runs it in
// parallel.
//
// A query is a graph of operator nodes, each translating input weight
// differences into output differences. Every operator's record space is
// partitioned into hash shards (one shard is the serial configuration:
// the same scheduling, nothing to route):
//
//   - Stateless operators (Select, Where, SelectMany, Concat, Except) are
//     embarrassingly parallel: each round's input is cut into contiguous
//     chunks processed concurrently.
//   - Record-partitioned operators (Shave, Union, Intersect) and
//     key-partitioned operators (GroupBy, Join) first run a hash-exchange
//     step that routes every difference to the shard owning its record
//     (respectively its key), then apply each shard's differences to that
//     shard's private operator state in parallel.
//
// Each shard's state is a private operator body from
// wpinq/internal/incremental — a state machine the node calls, and where
// the semantics, including the Join fast path, live; the executor adds
// only routing, batching, and scheduling. Equivalence tests against the
// from-scratch reference semantics in wpinq/internal/weighted pin the
// combination.
//
// # Execution model
//
// A dataflow graph is built bottom-up against a single Engine: inputs via
// NewInput, operators via the package-level constructors. Construction
// order is topological order, and the engine schedules one round per
// Input.Push: every node, in construction order, takes the batches its
// upstreams emitted earlier in the round — all of them, from every
// upstream, at once — routes them, applies them shard-parallel, and emits
// its per-shard outputs downstream exactly once. A node reached along
// several paths from the input (every join whose two sides share an
// ancestor) therefore still runs once per round, where delivering each
// emission as it is made would run it once per path. When Push returns,
// every subscriber and sink reflects the change.
//
// Rounds whose total pending work is below SerialCutoff are applied on
// the calling goroutine (still sharded, no parallel dispatch), so the
// tiny rounds of an MCMC edge swap do not pay goroutine fan-out.
//
// Pushes may be bracketed by Input.Begin and Input.Commit/Input.Abort:
// speculative rounds run identically, but every shard's body logs the
// pre-images of the state it overwrites, and Abort restores them in
// O(touched keys) without another round (see txnGate and the incremental
// package's TxnOp).
//
// # Sinks
//
// Every engine stream implements incremental.Source, so the incremental
// package's terminal consumers — Collect, NewNoisyCountSink — attach to a
// pipeline directly. Handlers subscribed this way run serially on the
// scheduling goroutine.
//
// # Profile
//
// Every node counts the rounds it executed and the differences it took
// and emitted, on the scheduling goroutine; Engine.Profile reads the
// counters, with each stateful node's indexed records, between rounds.
//
// # Concurrency contract
//
// Building the graph, pushing differences, and reading sinks are
// single-goroutine operations: the engine parallelizes internally but its
// public API is not thread-safe. User functions handed to operators
// (selectors, predicates, keys, reducers) are called concurrently from
// worker goroutines and must be pure.
package engine

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"sync"

	"wpinq/internal/incremental"
)

// MaxShards bounds the shard count: beyond this, exchange scratch and
// goroutine fan-out outweigh any conceivable parallel gain.
const MaxShards = 64

// DefaultSerialCutoff is the round size (total pending differences at a
// node) below which a node applies its shards on the calling goroutine
// instead of dispatching workers. MCMC edge-swap rounds fall far below
// it; bulk loads sit far above.
const DefaultSerialCutoff = 512

// Engine owns a dataflow graph's nodes, its shard layout, and its
// scheduler. Build one Engine per graph.
type Engine struct {
	shards int
	seed   maphash.Seed
	cutoff int
	nodes  []processor
	inRun  bool
}

// processor is one schedulable node: an Input or an operator.
type processor interface {
	// process drains the node's pending input, applies it, and emits any
	// output downstream. Called once per round in construction order.
	process()
	// profile returns the node's counters (see NodeProfile).
	profile() NodeProfile
}

// NodeProfile is what one node has cost so far: the rounds in which it
// had input, the differences it took and the differences it emitted,
// counted where the node executes, and the records its state indexes (0
// for a stateless node). Index is the node's place in construction —
// scheduling — order.
type NodeProfile struct {
	Index  int    `json:"node"`
	Op     string `json:"op"`
	Rounds uint64 `json:"rounds"`
	In     uint64 `json:"in"`
	Out    uint64 `json:"out"`
	State  int    `json:"state"`
}

// Profile returns every node's NodeProfile in scheduling order. Like the
// rest of the API it must not run concurrently with a Push.
func (e *Engine) Profile() []NodeProfile {
	out := make([]NodeProfile, len(e.nodes))
	for i, n := range e.nodes {
		out[i] = n.profile()
		out[i].Index = i
	}
	return out
}

// New returns an engine that partitions operator state into the given
// number of shards. shards <= 0 selects one shard per available CPU
// (GOMAXPROCS); the count is clamped to [1, MaxShards]. New(1) is the
// serial configuration: identical scheduling, no parallel dispatch.
// (Callers that accept the retired reference engine's -1 map it to 1
// themselves: see workload.NewPlanFused.)
func New(shards int) *Engine {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > MaxShards {
		shards = MaxShards
	}
	return &Engine{
		shards: shards,
		seed:   incremental.HashSeed(),
		cutoff: DefaultSerialCutoff,
	}
}

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return e.shards }

// SetSerialCutoff overrides DefaultSerialCutoff. A cutoff of 0 forces
// parallel dispatch for every round, however small — useful under the
// race detector; counterproductive in production.
func (e *Engine) SetSerialCutoff(n int) { e.cutoff = n }

// register appends a node to the schedule. Nodes are constructed after
// their upstreams, so registration order is a topological order of the
// dataflow DAG and one scheduling pass per round suffices.
func (e *Engine) register(p processor) { e.nodes = append(e.nodes, p) }

// run executes one round: every node processes once, in topological
// order. Emissions from node i land in the pending ports of nodes > i,
// which the same pass then drains.
func (e *Engine) run() {
	if e.inRun {
		panic("engine: re-entrant Push (subscribed handlers must not push)")
	}
	e.inRun = true
	for _, n := range e.nodes {
		n.process()
	}
	e.inRun = false
}

// shardOf returns the shard owning value x.
func shardOf[T comparable](e *Engine, x T) int {
	if e.shards == 1 {
		return 0
	}
	return int(maphash.Comparable(e.seed, x) % uint64(e.shards))
}

// forN invokes f(0), ..., f(n-1). When the round's work warrants it, the
// calls are spread over up to Shards() worker goroutines; f must
// therefore be safe to run concurrently for distinct arguments. forN
// returns only after every call completes. f escapes to those
// goroutines, so a closure built at the call site is a heap allocation
// per round: nodes build theirs once, at construction.
func (e *Engine) forN(work, n int, f func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(e.shards, n) // assigned once: the workers capture it by value, not a heap cell
	if workers <= 1 || work <= e.cutoff {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// port is one node's pending input from one upstream stream: the batches
// emitted earlier in the current round, awaiting the owner's process
// call. Batches are owned by the emitter and are read-only, valid until
// the emitting node's next round.
type port[T comparable] struct {
	batches [][]incremental.Delta[T]
	total   int
}

func (p *port[T]) add(batch []incremental.Delta[T]) {
	p.batches = append(p.batches, batch)
	p.total += len(batch)
}

// reset empties the port once its owner has consumed the round. The
// slots are cleared, not just truncated: a load's batches are the
// emitter's released arrays, and a port that kept pointing at them would
// keep them alive until later rounds happened to overwrite the slots.
func (p *port[T]) reset() {
	clear(p.batches)
	p.batches, p.total = p.batches[:0], 0
}

// txnGate is the shared event-dedup gate. Transaction control events
// (incremental.TxnOp) travel the same edges as difference batches: each
// node receives an event from every upstream, drops redundant deliveries
// at its gate, applies the event to its own state — for a stateful node,
// by telling every shard's body, which runs its own undo-log machinery —
// and forwards it downstream. Events carry no data and run
// serially on the scheduling goroutine, outside any round.
type txnGate = incremental.TxnGate

// Stream is the output side of a node: it broadcasts emitted batches to
// downstream engine nodes (via their ports) and to handlers subscribed
// through the incremental.Source interface. Operator nodes embed Stream.
type Stream[T comparable] struct {
	e        *Engine
	ports    []*port[T]
	handlers []incremental.Handler[T]
	txnSubs  []func(incremental.TxnOp)
	prof     NodeProfile // Op, Rounds, In, Out: written by the owning node's process
}

// Source is a stream of weight differences of type T produced by a
// sharded dataflow node. Every Source is also an incremental.Source, so
// the incremental package's sinks (Collect, NewNoisyCountSink) attach to
// engine pipelines directly and observe transactions. Only this package
// constructs Sources.
type Source[T comparable] interface {
	incremental.Source[T]
	engine() *Engine
	newPort() *port[T]
}

func (s *Stream[T]) engine() *Engine { return s.e }

func (s *Stream[T]) profile() NodeProfile { return s.prof }

// ran counts one executed round that took in differences.
func (s *Stream[T]) ran(in int) {
	s.prof.Rounds++
	s.prof.In += uint64(in)
}

// newPort registers a downstream engine node's input port.
func (s *Stream[T]) newPort() *port[T] {
	p := &port[T]{}
	s.ports = append(s.ports, p)
	return p
}

// Subscribe registers a serial handler, satisfying incremental.Source.
// The handler runs on the scheduling goroutine once per emitted batch; it
// must not retain or mutate the batch, and subscriptions must complete
// before the first push.
func (s *Stream[T]) Subscribe(h incremental.Handler[T]) {
	s.handlers = append(s.handlers, h)
}

// SubscribeTxn registers a transaction control-event handler, satisfying
// incremental.Source. Handlers run serially on the scheduling
// goroutine, outside any round; registration must complete before the
// first push.
func (s *Stream[T]) SubscribeTxn(f func(incremental.TxnOp)) {
	s.txnSubs = append(s.txnSubs, f)
}

// emitTxn delivers a transaction event to every control subscriber.
func (s *Stream[T]) emitTxn(op incremental.TxnOp) {
	for _, f := range s.txnSubs {
		f(op)
	}
}

// emit broadcasts each non-empty batch downstream. The batches remain
// owned by the caller, which may reuse them after the round completes.
func (s *Stream[T]) emit(batches [][]incremental.Delta[T]) {
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		s.prof.Out += uint64(len(b))
		for _, p := range s.ports {
			p.add(b)
		}
		for _, h := range s.handlers {
			h(b)
		}
	}
}

// sameEngine asserts that two sources belong to the same engine before a
// binary operator bridges them.
func sameEngine[A, B comparable](a Source[A], b Source[B]) *Engine {
	if a.engine() != b.engine() {
		panic(fmt.Sprintf("engine: binary operator across engines (%p vs %p)", a.engine(), b.engine()))
	}
	return a.engine()
}

// splitChunks cuts the concatenation of batches into contiguous
// sub-slices of roughly total/n elements without copying, appending them
// to dst. It yields at least one chunk per non-empty batch, so the chunk
// count can exceed n when the round consists of many small batches.
func splitChunks[T comparable](batches [][]incremental.Delta[T], total, n int, dst [][]incremental.Delta[T]) [][]incremental.Delta[T] {
	if n < 1 {
		n = 1
	}
	target := (total + n - 1) / n
	if target < 1 {
		target = 1
	}
	for _, b := range batches {
		for len(b) > target {
			dst = append(dst, b[:target])
			b = b[target:]
		}
		if len(b) > 0 {
			dst = append(dst, b)
		}
	}
	return dst
}

// routed is the hash-exchange scratch of one stateful-operator input: the
// current round's differences bucketed by owning shard. Partitioning is
// itself parallel — each worker buckets one contiguous chunk — and every
// bucket slice is reused across rounds (recycle: all but a load's), so
// steady-state exchange allocates nothing.
type routed[T comparable] struct {
	chunks [][]incremental.Delta[T]   // contiguous slices of this round's input
	parts  [][][]incremental.Delta[T] // [chunk][shard] buckets
	bucket func(i int)                // buckets chunk i; built once, so a round allocates no closure
}

// newRouted returns the exchange scratch of an input whose differences
// are owned by shard(record).
func newRouted[T comparable](shard func(T) int) *routed[T] {
	r := &routed[T]{}
	r.bucket = func(i int) {
		buckets := r.parts[i]
		for s := range buckets {
			// An even share of the chunk: all of it at one shard.
			buckets[s] = slices.Grow(buckets[s][:0], len(r.chunks[i])/len(buckets))
		}
		for _, d := range r.chunks[i] {
			s := shard(d.Record)
			buckets[s] = append(buckets[s], d)
		}
	}
	return r
}

// route partitions the round's pending batches by owning shard.
func (r *routed[T]) route(e *Engine, batches [][]incremental.Delta[T], total int) {
	r.chunks = splitChunks(batches, total, e.shards, r.chunks[:0])
	for len(r.parts) < len(r.chunks) {
		r.parts = append(r.parts, make([][]incremental.Delta[T], e.shards))
	}
	e.forN(total, len(r.chunks), r.bucket)
}

// recycle applies incremental.Recycle to every buffer of a round that
// has been consumed: in a transaction (keep) they all stay as they are
// for the next round to truncate; after a load, the oversized ones go.
func recycle[T any](bufs [][]T, keep bool) {
	if keep {
		return
	}
	for i := range bufs {
		bufs[i] = incremental.Recycle(bufs[i], false)
	}
}

// recycle ends a round once every shard has gathered its buckets: the
// chunk table stops pointing into the upstream's batches (see port.reset)
// and, after a load, the oversized buckets go.
func (r *routed[T]) recycle(keep bool) {
	clear(r.chunks)
	r.chunks = r.chunks[:0]
	if keep {
		return
	}
	for _, buckets := range r.parts {
		recycle(buckets, false)
	}
}

// gather appends shard s's routed differences to dst in arrival order and
// returns the extended slice.
func (r *routed[T]) gather(s int, dst []incremental.Delta[T]) []incremental.Delta[T] {
	for i := range r.chunks {
		dst = append(dst, r.parts[i][s]...)
	}
	return dst
}
