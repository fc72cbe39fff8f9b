// Package engine is the executor of wPINQ's incremental dataflow (paper
// Section 4.3): the graph of inputs, operators and sinks a query is built
// as, and the round scheduler that runs it.
//
// A query is a graph of operator nodes, each translating input weight
// differences into output differences:
//
//   - Stateless operators (Select, Where, SelectManySlice) transform each
//     batch their upstream emits as it is emitted.
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
// Input.Push: every node runs once, after its upstreams.
//
// A node's emissions reach its consumers in one of two ways (see Stream).
// A stateful operator owns a port on each input: its upstream's round
// output lands there as one batch, and the operator applies the batches
// of all its ports when it runs. A node reached along several paths from
// the input (every join whose two sides share an ancestor) therefore
// still applies each input once per round, where delivering each
// emission as it is made would run it once per path. A stateless
// operator, a sink and any other subscribed handler is a push consumer
// instead: it is called with each batch as its upstream emits it, on the
// emitting goroutine, so a stateless node transforms a batch the moment
// it exists and passes the result on the same way. A stateless node still
// has its place in the schedule and its edge in the DAG; its own run only
// hands the round's output to its ports, if it has any, and counts the
// round. A node with no port below it — none of its own, none on any
// stateless node fed by it — keeps no round buffer: outside a
// transaction a stateful node then sends each of its body's emissions on
// as it is made, and a JoinDistinct's load emits its outer product in
// chunks of a fixed size (incremental.JoinDistinct) instead of whole, so
// a path join summed by a noisy count never holds its paths at once.
// Inside a transaction a stateful node emits once per round, so each
// fragment of a fit delivers at most one batch per proposal. When Push
// returns, every subscriber and sink reflects the change.
//
// No bit depends on how a round is cut into batches: every stateful body
// applies the same batch, in the same order, as when each node emitted
// once, and push consumers are linear or, like the sinks, accumulate
// difference by difference in arrival order.
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
// pipeline directly, as push consumers. A handler subscribed this way
// runs on the goroutine that emits each batch: whichever of the round's
// goroutines runs the nearest stateful node (or input) above it, after
// that node's upstreams and before its stateful downstreams.
//
// # Profile
//
// Every node counts the rounds in which it took differences, the
// differences it took and those it emitted, however many batches they
// came in; Engine.Profile reads the counters, with each stateful node's
// indexed records, between rounds.
//
// # Concurrency contract
//
// An engine's API is not thread-safe: building the graph, pushing
// differences and reading sinks happen on one goroutine. A load may run
// nodes on other goroutines, but none outlives the Push, and a panic in
// one — or in a stateless node or handler it calls — is raised again on
// the pushing goroutine. A stateful node runs on one goroutine, and with
// it every stateless node and handler below it up to the next stateful
// node; each of them writes its own buffers and counters and nothing
// another branch reaches. What several nodes share — a counter every
// fragment taps — must be safe for concurrent use. Independent engines
// share nothing.
package engine

import (
	"fmt"
	"runtime"
	"slices"
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
// which the same pass then drains, and reach push consumers at once. A larger push outside a transaction,
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
// writes only its own state, its ports and its push consumers — no float
// is accumulated in another order. A goroutine that finishes a node runs the first
// downstream it readied itself and hands the others out.
//
// A panic in a node, or in a push consumer it calls, is recovered
// there; no node starts after it, and once every started node has
// returned it is raised again on the pushing goroutine: the panic of the
// lowest-indexed node that panicked. Nothing load starts outlives it.
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

// Stream is the output side of a node. Its consumers take what it emits
// in one of two ways. A stateful operator owns a port, where the node's
// round output lands as one batch for the operator to take when it runs.
// A push consumer — a stateless operator, or a handler subscribed through
// the incremental.Source interface — is called with each batch as the
// node emits it, on the emitting goroutine. Operator nodes embed Stream.
type Stream[T comparable] struct {
	e        *Engine
	node     int // the owning node's index
	ports    []*port[T]
	handlers []incremental.Handler[T] // the push consumers, in subscription order
	tails    []buffering              // the stateless ones among them
	prof     NodeProfile              // Op, Rounds, In, Out: written by the owning node's process and emissions
}

// buffering is what a stream asks of its stateless consumers.
type buffering interface{ buffered() bool }

// Source is a stream of weight differences of type T produced by a
// dataflow node. Every Source is also an incremental.Source, so
// the incremental package's sinks (Collect, NewNoisyCountSink) attach to
// engine pipelines directly and observe transactions. Only this package
// constructs Sources.
type Source[T comparable] interface {
	incremental.Source[T]
	engine() *Engine
	newPort() *port[T]
	newPush(c buffering, h incremental.Handler[T])
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

// newPush registers c, the stateless node about to be registered, as a
// push consumer whose handler is h. It is still an edge of the DAG: c's
// process, which hands its round output to its own ports, runs after
// this node's.
func (s *Stream[T]) newPush(c buffering, h incremental.Handler[T]) {
	s.handlers = append(s.handlers, h)
	s.tails = append(s.tails, c)
	s.e.downs[s.node] = append(s.e.downs[s.node], len(s.e.nodes))
}

// buffered reports whether some consumer needs the node's round output
// as one batch: a port of this stream, or of a stateless consumer of it,
// at any depth. Without one, a round may reach every consumer in any
// number of batches, and the node need not hold its output whole.
func (s *Stream[T]) buffered() bool {
	return len(s.ports) > 0 || slices.ContainsFunc(s.tails, buffering.buffered)
}

// Subscribe registers a handler, satisfying incremental.Source.
// The handler is a push consumer: it runs once per emitted batch, on the
// goroutine that emits it (see the package's Concurrency contract); it
// must not retain or mutate the batch, and subscriptions must complete
// before the first push.
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

// emit hands a round's output to the ports and sends it to the push
// consumers. The batch remains owned by the caller, which may reuse it
// after the round completes.
func (s *Stream[T]) emit(b []incremental.Delta[T]) {
	s.hand(b)
	s.send(b)
}

// hand puts a non-empty round output in every port.
func (s *Stream[T]) hand(b []incremental.Delta[T]) {
	if len(b) == 0 {
		return
	}
	for _, p := range s.ports {
		p.batch = b
	}
}

// send counts a non-empty batch as emitted and calls every push consumer
// with it. The caller may reuse the batch once send returns.
func (s *Stream[T]) send(b []incremental.Delta[T]) {
	if len(b) == 0 {
		return
	}
	s.prof.Out += uint64(len(b))
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
