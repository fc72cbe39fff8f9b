// Package engine is the executor of wPINQ's incremental dataflow (paper
// Section 4.3): the graph of inputs, operators and sinks a query is built
// as, and the round scheduler that runs it.
//
// A query is a graph of operator nodes, each translating input weight
// differences into output differences:
//
//   - Stateless operators (Select, Where, SelectManySlice) transform the
//     batch their upstream emitted into one output batch.
//   - Stateful operators (ShaveConst, GroupBy, Join, JoinDistinct,
//     Intersect) hand each input's pending differences to one operator
//     body, which indexes them and emits what changed.
//
// These are the operators wpinq/internal/queries lowers its analyses to,
// and nothing else: the rest of the paper's language (Union, Concat,
// Except, a general Shave or SelectMany) lives in wpinq/internal/core,
// where measurements are taken, and is never fitted.
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
// Input.Push: every node, after its upstreams, takes the batch each of
// them emitted earlier in the round, applies them, and emits its output
// downstream at most once. A port therefore holds one batch. A node
// reached along several paths from the input (every join whose two sides
// share an ancestor) still runs once per round, where delivering each
// emission as it is made would run it once per path. When Push returns,
// every subscriber and sink reflects the change.
//
// A round inside a transaction — an MCMC proposal — runs on the pushing
// goroutine, node after node in construction order, and so does a small
// push outside one. A load of at least minLoad records runs on GOMAXPROCS
// goroutines, the pushing one among them: a node starts once every
// upstream has finished, so branches that share no operator run at once.
// No operator's state is split, and a node takes the same batches in the
// same order either way, so no bit depends on GOMAXPROCS.
//
// Pushes may be bracketed by Input.Begin and Input.Commit/Input.Abort:
// speculative rounds run identically, but every body logs the pre-images
// of the state it overwrites, and Abort restores them in O(touched keys)
// without another round. The transaction is the engine's, not an edge's:
// the engine keeps one flag, drops a Begin inside a transaction and a
// Commit or Abort outside one, and tells each party — every stateful
// node's body and every sink — each remaining event once, outside any
// round (see Engine.tell and the incremental package's TxnOp).
//
// # Sinks
//
// Every engine stream implements incremental.Source, so the incremental
// package's terminal consumers — Collect, NewNoisyCountSink — attach to a
// pipeline directly. A handler subscribed this way runs on whichever of
// the round's goroutines runs the node it hangs on, after that node's
// upstreams and before its downstreams.
//
// # Profile
//
// Every node counts the rounds it executed and the differences it took
// and emitted; Engine.Profile reads the counters, with each stateful
// node's indexed records, between rounds.
//
// # Concurrency contract
//
// An engine's API is not thread-safe: building the graph, pushing
// differences and reading sinks happen on one goroutine. A load may run
// nodes on other goroutines, but none outlives the Push, and a panic in
// one is raised again on the pushing goroutine. A node, its sinks and its
// handlers write nothing another node reaches; what several nodes share
// — a counter every fragment taps — must be safe for concurrent use.
// Independent engines share nothing, so replica-exchange chains each run
// their own, each on its own goroutine between the stops of synth's chain
// loop.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wpinq/internal/incremental"
)

// Engine owns a dataflow graph's nodes and its scheduler. Build one
// Engine per graph.
type Engine struct {
	nodes []processor
	// downs[i] lists the nodes that take node i's emissions, one entry
	// per port: the edges of the dataflow DAG a load schedules by.
	downs [][]int
	inRun bool

	// inTxn is set between a Begin and its Commit or Abort; parties are
	// told each transaction event (tell), in registration order.
	inTxn   bool
	parties []func(incremental.TxnOp)
}

// processor is one schedulable node: an Input or an operator.
type processor interface {
	// process drains the node's pending input, applies it, and emits any
	// output downstream. Called once per round, after every upstream.
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
func (e *Engine) register(p processor) {
	e.nodes = append(e.nodes, p)
	e.downs = append(e.downs, nil)
}

// minLoad is the number of records a push outside a transaction must
// carry for its round to run independent branches at once. On a 2-CPU
// host, a wpinqd job's checkpoint re-anchor of a 1 200-edge graph pushes
// ≈ 2.4·10³ records while another job keeps the second CPU busy, and
// overlapping its branches cost the daemon a tenth of its throughput; a
// fit's start on a 2·10⁴-edge graph pushes 4·10⁴ records and loads in
// three fifths of the serial time.
const minLoad = 1 << 12

// run executes the round of a push of records differences: every node
// processes once, after its upstreams. Inside a transaction — a
// proposal, whose round is too short to split — or for fewer than
// minLoad records, the pushing goroutine runs the nodes in construction
// order: emissions from node i land in the pending ports of nodes > i,
// which the same pass then drains. A larger push outside a transaction,
// a load, runs independent branches at once on GOMAXPROCS goroutines
// (load).
func (e *Engine) run(records int) {
	if e.inRun {
		panic("engine: re-entrant Push (subscribed handlers must not push)")
	}
	e.inRun = true
	if e.inTxn || records < minLoad || !e.load() {
		for _, n := range e.nodes {
			n.process()
		}
	}
	e.inRun = false
}

// load runs one round on min(GOMAXPROCS, nodes) goroutines, the pushing
// one among them, or reports false and runs nothing when that is one: a
// node starts once every upstream has finished, so it takes exactly the
// batches the serial pass would hand it, left inlet before right, and
// writes only its own state, ports and sinks — no float is accumulated
// in another order. A goroutine that finishes a node runs the first
// downstream it readied itself and hands the others out.
//
// A panic in a node, or in a handler it calls, is recovered there; no
// node starts after it, and once every started node has returned it is
// raised again on the pushing goroutine: the panic of the lowest-indexed
// node that panicked. Nothing load starts outlives it.
func (e *Engine) load() bool {
	workers := min(runtime.GOMAXPROCS(0), len(e.nodes))
	if workers < 2 {
		return false
	}
	waiting := make([]atomic.Int32, len(e.nodes)) // upstreams yet to finish
	for _, ds := range e.downs {
		for _, d := range ds {
			waiting[d].Add(1)
		}
	}
	var (
		ready   = make(chan int, len(e.nodes)) // each node is sent once at most
		open    atomic.Int32                   // nodes readied and not yet finished
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	panics, panicked := make([]any, len(e.nodes)), make([]bool, len(e.nodes))
	for i := range e.nodes {
		if waiting[i].Load() == 0 {
			open.Add(1)
			ready <- i
		}
	}
	work := func() {
		for i := range ready {
			for i >= 0 {
				next := -1
				if !stopped.Load() {
					if panics[i], panicked[i] = processRecovered(e.nodes[i]); panicked[i] {
						stopped.Store(true)
					} else {
						for _, d := range e.downs[i] {
							if waiting[d].Add(-1) > 0 {
								continue
							}
							open.Add(1)
							if next < 0 {
								next = d
							} else {
								ready <- d
							}
						}
					}
				}
				if open.Add(-1) == 0 {
					close(ready)
				}
				i = next
			}
		}
	}
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i, p := range panicked {
		if p {
			panic(panics[i])
		}
	}
	return true
}

// processRecovered runs one node's round and reports whether it
// panicked, with the recovered value.
func processRecovered(n processor) (value any, panicked bool) {
	panicked = true
	defer func() {
		if panicked {
			value = recover()
		}
	}()
	n.process()
	return nil, false
}

// tell applies a transaction event to the engine: it drops a Begin
// inside a transaction and a Commit or Abort outside one, and tells every
// party each remaining event once. Events carry no data and run on the
// pushing goroutine, between rounds.
func (e *Engine) tell(op incremental.TxnOp) {
	if (op == incremental.TxnBegin) == e.inTxn {
		return
	}
	e.inTxn = op == incremental.TxnBegin
	for _, f := range e.parties {
		f(op)
	}
}

// port is one node's pending input from one upstream stream: the batch
// that upstream emitted earlier in the current round, awaiting the
// owner's process call. The batch is owned by the emitter and is
// read-only, valid until the emitting node's next round.
type port[T comparable] struct {
	batch []incremental.Delta[T]
}

// take returns the round's pending batch (nil when the upstream emitted
// nothing) and empties the port. The slot is cleared, not kept: a load's
// batch is the emitter's released array, and a port that kept pointing
// at it would keep it alive until a later round overwrote the slot.
func (p *port[T]) take() []incremental.Delta[T] {
	b := p.batch
	p.batch = nil
	return b
}

// Stream is the output side of a node: it broadcasts emitted batches to
// downstream engine nodes (via their ports) and to handlers subscribed
// through the incremental.Source interface. Operator nodes embed Stream.
type Stream[T comparable] struct {
	e        *Engine
	node     int // the owning node's index
	ports    []*port[T]
	handlers []incremental.Handler[T]
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

// newStream returns the output of the node about to be registered with e.
func newStream[T comparable](e *Engine, op string) Stream[T] {
	return Stream[T]{e: e, node: len(e.nodes), prof: NodeProfile{Op: op}}
}

func (s *Stream[T]) engine() *Engine { return s.e }

func (s *Stream[T]) profile() NodeProfile { return s.prof }

// ran counts one executed round that took in differences.
func (s *Stream[T]) ran(in int) {
	s.prof.Rounds++
	s.prof.In += uint64(in)
}

// newPort registers an input port of the node about to be registered:
// one edge of the DAG.
func (s *Stream[T]) newPort() *port[T] {
	p := &port[T]{}
	s.ports = append(s.ports, p)
	s.e.downs[s.node] = append(s.e.downs[s.node], len(s.e.nodes))
	return p
}

// Subscribe registers a handler, satisfying incremental.Source.
// The handler runs once per emitted batch, on the goroutine that runs the
// node (see the package's Concurrency contract); it must not retain or
// mutate the batch, and subscriptions must complete before the first
// push.
func (s *Stream[T]) Subscribe(h incremental.Handler[T]) {
	s.handlers = append(s.handlers, h)
}

// SubscribeTxn registers a transaction event handler with the engine,
// satisfying incremental.Source: the handler is told each transaction
// event once (Engine.tell), whichever stream it subscribed through.
// Registration must complete before the first push.
func (s *Stream[T]) SubscribeTxn(f func(incremental.TxnOp)) {
	s.e.parties = append(s.e.parties, f)
}

// emit broadcasts a non-empty batch downstream. The batch remains owned
// by the caller, which may reuse it after the round completes.
func (s *Stream[T]) emit(b []incremental.Delta[T]) {
	if len(b) == 0 {
		return
	}
	s.prof.Out += uint64(len(b))
	for _, p := range s.ports {
		p.batch = b
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
