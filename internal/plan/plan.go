// Package plan is the multi-workload plan optimizer: it fuses the
// shared operator prefixes of several workloads' fit pipelines into one
// dataflow DAG with fan-out at the divergence points.
//
// Every registered workload compiles to a pipeline over the dataflow
// executor (wpinq/internal/engine). Before this package, a plan fitting N
// workloads built N private pipelines, so tbi, tbd, and wedges each
// maintained their own copy of the length-two-path join even though the
// three subgraphs are identical — propagation cost per MCMC proposal
// scaled with the workload count, not with the amount of distinct
// dataflow.
//
// The optimizer is a hash-consing memo over canonical fragment keys. A
// fragment is a connected piece of a pipeline (the paths join, the
// degree GroupBy, a workload's private suffix) identified by a Node
// descriptor: a key with the canonicalized parameters folded in, and
// the keys of its input fragments. The lowering of an operator tree
// requests fragments bottom-up through Shared; the first request for a key
// constructs the operators, every later request returns the existing
// stream, and subscribing another consumer to it is exactly the fan-out
// point of the fused DAG. Two pipelines therefore share their longest
// common prefix automatically, with no plan enumeration: identification
// is structural (same key means same operator subgraph over the same
// inputs), in the spirit of janus-datalog's statistics-free planning —
// cheap structural rules rather than cardinality estimation.
//
// Correctness under the transactional scoring protocol comes from the
// executor itself: the engine keeps one transaction and tells each
// operator body and sink each event once, so the new diamonds fusion
// introduces (a shared prefix reaching one node along two paths) apply
// Begin/Commit/Abort exactly once per node.
//
// The memo also keeps the evidence: DAG returns the fused plan for
// inspection, Stats counts how many fragment requests were served by
// sharing, and Pushes counts batches delivered through fragment outputs
// — the observable metric that per-proposal propagation work scales
// with the merged DAG, not the workload count (compare a fused memo
// against a New(false) memo, which builds every request privately but
// still counts).
package plan

import (
	"fmt"
	"reflect"
	"strconv"
	"sync/atomic"

	"wpinq/internal/incremental"
	"wpinq/internal/obs"
)

// fragPushes lifts the per-memo Pushes counter into a process metric:
// difference batches delivered through fragment outputs, split by
// whether the owning memo fuses. Comparing the two series is the live
// version of the fused-vs-unfused differential the memo's own counter
// supports per plan.
var fragPushes = obs.Default.CounterVec("wpinq_plan_fragment_pushes_total",
	"Difference batches delivered through plan fragment outputs.", "fused")

// Node describes one fragment of a pipeline: Key is the canonical
// identity (equal keys must mean identical operator subgraphs over
// identical inputs — parameters such as bucket widths must be
// canonicalized into it), and Inputs names the fragment keys this
// fragment consumes ("edges" denotes the plan's root input). The
// requester derives Inputs from the fragment's operator tree
// (wpinq/internal/queries); the memo only records them, for DAG.
type Node struct {
	Key    string
	Inputs []string
}

// Fragment is one materialized node of the fused DAG: its descriptor
// plus the number of construction requests that resolved to it. Refs >
// 1 marks a fan-out point (a prefix shared by several consumers).
type Fragment struct {
	Node
	Refs int
}

// Stats summarizes a memo's fusion outcome.
type Stats struct {
	// Requests counts fragment construction requests.
	Requests int
	// Fragments counts distinct fragments actually constructed: the
	// fused DAG's node count.
	Fragments int
	// Shared counts requests served by an existing fragment
	// (Requests - Fragments).
	Shared int
}

// Memo is the fusion context of one plan under construction. A nil
// *Memo is valid and disables both fusion and accounting (every Shared
// call builds privately).
//
// Like the dataflow graphs it builds, a Memo is built on one goroutine,
// and Pushes is read between rounds. Only the push counter is written
// during a round, by every fragment's Count tap, and a load runs
// fragments that share no operator on different goroutines: it is
// atomic.
type Memo struct {
	fuse  bool
	built map[string]any
	byKey map[string]int
	dag   []Fragment

	requests int
	shared   int
	pushes   atomic.Uint64
}

// New returns an empty memo. fuse selects whether Shared actually
// fuses: with fuse false every request builds a private fragment —
// today's per-workload pipelines — while the DAG record and the push
// accounting still run, so an unfused plan is directly comparable as a
// differential baseline.
func New(fuse bool) *Memo {
	return &Memo{
		fuse:  fuse,
		built: make(map[string]any),
		byKey: make(map[string]int),
	}
}

// Fused reports whether this memo shares fragments.
func (m *Memo) Fused() bool { return m != nil && m.fuse }

// Stats returns the request/fragment counters.
func (m *Memo) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{Requests: m.requests, Fragments: len(m.dag), Shared: m.shared}
}

// DAG returns the fused DAG in construction order (a topological order:
// a fragment's inputs are requested before the fragment itself).
func (m *Memo) DAG() []Fragment {
	if m == nil {
		return nil
	}
	out := make([]Fragment, len(m.dag))
	copy(out, m.dag)
	return out
}

// FanOuts returns the fragments consumed by more than one requester:
// the divergence points of the fused plan.
func (m *Memo) FanOuts() []Fragment {
	var out []Fragment
	for _, f := range m.DAG() {
		if f.Refs > 1 {
			out = append(out, f)
		}
	}
	return out
}

// Pushes returns the number of difference batches delivered through
// fragment outputs so far (see Count): the propagation-work counter.
// One MCMC proposal's cost in batch deliveries scales with the number
// of live fragments its differences reach — the fused DAG — where the
// unfused baseline pays once per private copy.
func (m *Memo) Pushes() uint64 {
	if m == nil {
		return 0
	}
	return m.pushes.Load()
}

// Shared resolves a fragment request: on a fusing memo the first
// request for n.Key constructs the fragment with build and every later
// request returns the same value (the requester subscribes to the
// shared stream — the fan-out). Non-fusing memos always build but still
// record the request in the DAG, and a nil memo just builds.
//
// The key contract is the caller's to uphold: equal keys MUST construct
// identical operator subgraphs over identical inputs (canonicalize
// parameters into the key), or fusion would silently splice one
// workload's operators into another's plan. The one violation the memo
// can observe — a key requested at a stream type other than the one it
// was built at — panics naming the key and both types.
func Shared[S any](m *Memo, n Node, build func() S) S {
	if m == nil {
		return build()
	}
	m.requests++
	if i, ok := m.byKey[n.Key]; ok {
		m.dag[i].Refs++
		if !m.fuse {
			return build()
		}
		m.shared++
		v, ok := m.built[n.Key].(S)
		if !ok {
			panic(fmt.Sprintf("plan: fragment %q requested as %v but built as %T: one key names two stream types",
				n.Key, reflect.TypeOf((*S)(nil)).Elem(), m.built[n.Key]))
		}
		return v
	}
	m.byKey[n.Key] = len(m.dag)
	m.dag = append(m.dag, Fragment{Node: n, Refs: 1})
	v := build()
	if m.fuse {
		m.built[n.Key] = v
	}
	return v
}

// Count taps a fragment's output stream with a batch-delivery counter
// feeding Pushes. Fragment builders call it on the stream they return;
// the tap is a pure observer (it never mutates the batch), so it leaves
// the propagation semantics untouched (engine streams implement
// incremental.Source).
func Count[T comparable](m *Memo, src incremental.Source[T]) {
	if m == nil {
		return
	}
	c := fragPushes.With(strconv.FormatBool(m.fuse))
	src.Subscribe(func([]incremental.Delta[T]) {
		m.pushes.Add(1)
		c.Inc()
	})
}
