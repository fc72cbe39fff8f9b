// Package engine is the executor of wPINQ's incremental dataflow (paper
// Section 4.3): the graph of inputs, operators and sinks a query is built
// as, and the round scheduler that runs it.
//
// A query is a graph of operator nodes, each translating input weight
// differences into output differences:
//
//   - Stateless operators (Select, Where, SelectMany, Concat, Except)
//     transform each batch their upstreams emitted into one output batch.
//   - Stateful operators (Shave, Union, Intersect, GroupBy, Join) hand
//     each input's pending differences to one operator body, which indexes
//     them and emits what changed.
//
// A stateful node's state is one operator body from
// wpinq/internal/incremental — a state machine the node calls, and where
// the semantics, including the Join fast path, live; the executor adds
// only batching and scheduling. Equivalence tests against the
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
// upstream, at once — applies them, and emits its output downstream
// exactly once. A node reached along several paths from the input (every
// join whose two sides share an ancestor) therefore still runs once per
// round, where delivering each emission as it is made would run it once
// per path. When Push returns, every subscriber and sink reflects the
// change.
//
// Pushes may be bracketed by Input.Begin and Input.Commit/Input.Abort:
// speculative rounds run identically, but every body logs the pre-images
// of the state it overwrites, and Abort restores them in O(touched keys)
// without another round (see txnGate and the incremental package's
// TxnOp).
//
// # Sinks
//
// Every engine stream implements incremental.Source, so the incremental
// package's terminal consumers — Collect, NewNoisyCountSink — attach to a
// pipeline directly. Handlers subscribed this way run on the scheduling
// goroutine.
//
// # Profile
//
// Every node counts the rounds it executed and the differences it took
// and emitted; Engine.Profile reads the counters, with each stateful
// node's indexed records, between rounds.
//
// # Concurrency contract
//
// An engine runs every round on the goroutine that pushes, and its API is
// not thread-safe: building the graph, pushing differences and reading
// sinks happen on one goroutine. Independent engines share nothing, so
// replica-exchange chains each run their own (mcmc.RunDurable).
package engine

import (
	"fmt"

	"wpinq/internal/incremental"
)

// Engine owns a dataflow graph's nodes and its scheduler. Build one
// Engine per graph.
type Engine struct {
	nodes []processor
	inRun bool
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
// had input, the differences it took and the differences it emitted, and
// the records its state indexes (0 for a stateless node). Index is the
// node's place in construction — scheduling — order.
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

// New returns an empty engine.
func New() *Engine { return &Engine{} }

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
// by telling its body, which runs its own undo-log machinery — and
// forwards it downstream. Events carry no data and run on the scheduling
// goroutine, outside any round.
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
// dataflow node. Every Source is also an incremental.Source, so
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

// Subscribe registers a handler, satisfying incremental.Source.
// The handler runs on the scheduling goroutine once per emitted batch; it
// must not retain or mutate the batch, and subscriptions must complete
// before the first push.
func (s *Stream[T]) Subscribe(h incremental.Handler[T]) {
	s.handlers = append(s.handlers, h)
}

// SubscribeTxn registers a transaction control-event handler, satisfying
// incremental.Source. Handlers run on the scheduling goroutine, outside
// any round; registration must complete before the first push.
func (s *Stream[T]) SubscribeTxn(f func(incremental.TxnOp)) {
	s.txnSubs = append(s.txnSubs, f)
}

// emitTxn delivers a transaction event to every control subscriber.
func (s *Stream[T]) emitTxn(op incremental.TxnOp) {
	for _, f := range s.txnSubs {
		f(op)
	}
}

// emit broadcasts a non-empty batch downstream. The batch remains owned
// by the caller, which may reuse it after the round completes.
func (s *Stream[T]) emit(b []incremental.Delta[T]) {
	if len(b) == 0 {
		return
	}
	s.prof.Out += uint64(len(b))
	for _, p := range s.ports {
		p.add(b)
	}
	for _, h := range s.handlers {
		h(b)
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
