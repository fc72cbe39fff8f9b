// Package mcmc implements the Metropolis-Hastings sampler of paper Section
// 4.2 over synthetic graphs, using the incremental dataflow engine to score
// each proposal in time proportional to the change.
//
// The state is a synthetic graph; the random walk is the degree-preserving
// edge swap of Section 5.1 (replace edges (a,b), (c,d) with (a,d), (c,b));
// the score is sum_i eps_i * ||Q_i(A) - m_i||_1 over the released noisy
// measurements, and a proposal is accepted with probability
//
//	min(1, exp(-pow * (scoreNew - scoreOld)))
//
// so the walk's limiting distribution is proportional to
// exp(-pow * sum_i eps_i * ||Q_i(A) - m_i||_1) — the posterior over
// datasets given the measurements, sharpened by pow.
//
// (The paper's Section 4.2 prints the score without the negation; the sign
// must be negative for the posterior to concentrate on good fits, matching
// the Laplace likelihood. See DESIGN.md "Known deviations".)
//
// Scoring is transactional: each proposal's edge differences propagate
// exactly once, speculatively, and a rejection restores the dataflow's
// pre-proposal state from per-operator undo logs instead of propagating
// the inverse swap a second time (DESIGN.md "Transactional scoring").
package mcmc

import (
	"errors"
	"math"
	"math/rand"

	"wpinq/internal/graph"
	"wpinq/internal/incremental"
)

// Input is the dataflow entry point the sampler drives: it accepts the
// edge differences of a proposed swap, propagates them synchronously to
// every subscribed pipeline, and brackets them in a transaction (see
// incremental.TxnOp) so that a rejection restores every stateful
// operator's pre-image from undo logs in O(touched keys) instead of
// propagating the inverse differences. *engine.Input[graph.Edge] and
// workload.Plan's input satisfy it.
type Input interface {
	Push(batch []incremental.Delta[graph.Edge])
	// Begin opens a transaction; subsequent pushes are speculative.
	Begin()
	// Commit keeps the speculative pushes and discards the undo logs.
	Commit()
	// Abort restores the pre-transaction dataflow state from the logs.
	Abort()
}

// GraphState is a synthetic graph coupled to the edge-difference input of
// one or more incremental query pipelines: the edge set under swaps, the
// isolated vertices no swap touches, and the input. Mutations go through
// proposals so the edge set and the dataflow state never diverge.
type GraphState struct {
	swaps    *graph.Swaps
	isolated []graph.Node
	input    Input

	// swapBatch is the reusable eight-delta proposal batch. Push consumes
	// the slice synchronously (the engine drains its round inside Push),
	// so reusing it across proposals is safe and keeps Apply
	// allocation-free.
	swapBatch []incremental.Delta[graph.Edge]
}

// NewGraphState couples a copy of g's edges to input and pushes the
// initial edge dataset through the dataflow graph. All pipeline
// subscriptions on input must be in place before this call.
//
// The bulk load is pushed in edge-list order (not weighted-dataset map
// order) so the dataflow's floating-point state — and therefore a seeded
// walk's accept/reject trace — is bit-reproducible across runs.
func NewGraphState(g *graph.Graph, input Input) *GraphState {
	s, err := NewGraphStateFromEdges(g.EdgeList(), g.Isolated(), input)
	if err != nil {
		panic(err) // EdgeList is normalized and duplicate-free
	}
	return s
}

// Graph returns the current synthetic graph: a snapshot built from the
// live edges and the isolated vertices, which later proposals do not
// change.
func (s *GraphState) Graph() *graph.Graph {
	g := graph.New()
	for _, v := range s.isolated {
		g.AddNode(v)
	}
	for _, e := range s.swaps.Edges() {
		g.AddEdge(e.Src, e.Dst)
	}
	return g
}

// Proposal is one candidate edge swap: undirected edges {A,B} and {C,D}
// (at edge-list indices I and J) are replaced by {A,D} and {C,B}.
type Proposal = graph.Swap

// Propose draws a random edge swap. ok is false when the draw is invalid
// (self-loop, duplicate edge, or shared endpoints) — invalid draws are
// simply skipped by the runner, as in the paper's random walk.
func (s *GraphState) Propose(rng *rand.Rand) (p Proposal, ok bool) {
	return s.swaps.Propose(rng)
}

// Apply performs the swap on the edge set and propagates the eight
// directed edge differences through the dataflow.
func (s *GraphState) Apply(p Proposal) {
	s.swaps.Apply(p)
	s.swapBatch = append(s.swapBatch[:0],
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.A, Dst: p.B}, Weight: -1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.B, Dst: p.A}, Weight: -1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.C, Dst: p.D}, Weight: -1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.D, Dst: p.C}, Weight: -1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.A, Dst: p.D}, Weight: 1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.D, Dst: p.A}, Weight: 1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.C, Dst: p.B}, Weight: 1},
		incremental.Delta[graph.Edge]{Record: graph.Edge{Src: p.B, Dst: p.C}, Weight: 1},
	)
	s.input.Push(s.swapBatch)
}

// Speculate performs the swap inside a transaction: the eight edge
// differences propagate exactly once, with every stateful operator
// logging pre-images, and the proposal stays pending until Commit or
// Abort.
func (s *GraphState) Speculate(p Proposal) {
	s.input.Begin()
	s.Apply(p)
}

// Commit accepts the pending speculative proposal.
func (s *GraphState) Commit() { s.input.Commit() }

// Abort rejects a just-speculated proposal: the edge set is unwound
// directly (set operations, exactly invertible) and the dataflow state is
// restored from the operators' undo logs in O(touched keys) — no second
// propagation.
func (s *GraphState) Abort(p Proposal) {
	s.swaps.Revert(p)
	s.input.Abort()
}

// DefaultRecomputeEvery is the RecomputeEvery every fit uses: a chain
// re-derives its sinks' distances from scratch after this many accepted
// proposals, which bounds floating-point drift.
const DefaultRecomputeEvery = 1 << 15

// Config parameterizes a Metropolis-Hastings run.
type Config struct {
	// Pow sharpens the posterior (paper Section 4.2); the experiments use
	// 10000 to make MCMC behave like a greedy fit.
	Pow float64
	// RecomputeEvery squashes floating-point drift in the sinks every this
	// many accepted steps (0 disables; see DefaultRecomputeEvery).
	RecomputeEvery int
}

// Stats summarizes a run.
type Stats struct {
	Steps      int
	Accepted   int
	Rejected   int
	Invalid    int
	FinalScore float64
}

// AcceptRate returns the fraction of attempted steps whose proposal was
// accepted, Accepted/Steps. Invalid draws count as attempts — they spend
// walk budget exactly like rejections — and a run of zero steps has rate
// 0 by definition, so callers need no ad-hoc +1 denominators to dodge
// the division.
func (s Stats) AcceptRate() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Steps)
}

// Runner drives Metropolis-Hastings over a GraphState against a Scorer.
type Runner struct {
	state  *GraphState
	scorer *incremental.Scorer
	cfg    Config
	rng    *rand.Rand

	sinceRecompute int
}

// NewRunner builds a runner. The scorer must already observe the pipelines
// fed by the state's input.
func NewRunner(state *GraphState, scorer *incremental.Scorer, cfg Config, rng *rand.Rand) (*Runner, error) {
	if state == nil || scorer == nil {
		return nil, errors.New("mcmc: state and scorer are required")
	}
	if cfg.Pow <= 0 {
		return nil, errors.New("mcmc: Pow must be positive")
	}
	return &Runner{
		state:  state,
		scorer: scorer,
		cfg:    cfg,
		rng:    rng,
	}, nil
}

// Score returns the current fit score (lower is better): the scorer's,
// which is a function of the current graph — the runner keeps no copy.
func (r *Runner) Score() float64 { return r.scorer.Score() }

// Scorer returns the scorer the runner scores proposals against, for
// residual diagnostics over the attached sinks.
func (r *Runner) Scorer() *incremental.Scorer { return r.scorer }

// State returns the runner's graph state.
func (r *Runner) State() *GraphState { return r.state }

// Step attempts one Metropolis-Hastings transition and reports whether a
// proposal was accepted.
func (r *Runner) Step() bool {
	accepted, _ := r.transition()
	return accepted
}

// transition performs one propose/score/commit-or-abort cycle. valid is
// false when the proposal draw was degenerate (nothing changed). The
// proposal's differences propagate exactly once: a rejection unwinds
// state from the operators' undo logs instead of propagating the inverse
// swap.
func (r *Runner) transition() (accepted, valid bool) {
	p, ok := r.state.Propose(r.rng)
	if !ok {
		return false, false
	}
	old := r.scorer.Score()
	r.state.Speculate(p)
	next := r.scorer.Score()
	accept := next <= old
	if !accept {
		accept = r.rng.Float64() < math.Exp(-r.cfg.Pow*(next-old))
	}
	if accept {
		r.state.Commit()
		r.sinceRecompute++
		if r.cfg.RecomputeEvery > 0 && r.sinceRecompute >= r.cfg.RecomputeEvery {
			r.scorer.Recompute()
			r.sinceRecompute = 0
		}
		return true, true
	}
	r.state.Abort(p)
	return false, true
}

// Run performs steps transitions and returns run statistics.
func (r *Runner) Run(steps int) Stats {
	st := Stats{Steps: steps}
	for i := 0; i < steps; i++ {
		accepted, valid := r.transition()
		switch {
		case !valid:
			st.Invalid++
		case accepted:
			st.Accepted++
		default:
			st.Rejected++
		}
	}
	st.FinalScore = r.scorer.Score()
	recordRun(st)
	return st
}
