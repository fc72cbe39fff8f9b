// Durable-run primitives: everything the sampler needs so a run can be
// checkpointed at a step boundary and later resumed in a fresh process
// with a bit-identical continuation.
//
// Two obstacles stand between a Runner and serializability, and this
// file's primitives remove both:
//
//   - math/rand exposes no generator state. CountingSource wraps a
//     seeded source and counts draws; resuming replays the seed and
//     fast-forwards to the recorded position, which reproduces the
//     stream exactly because every draw is a pure function of (seed,
//     position).
//
//   - The dataflow's floating-point state (sink L1 accumulators,
//     operator weights) is a function of the whole push history, not of
//     the current graph, so a resumed process cannot rebuild it from an
//     edge list and expect bitwise agreement with a process that kept
//     running. The fit's chain loop (synth's fit.run) therefore
//     *re-anchors* at every checkpoint boundary, discarding the live
//     pipelines and rebuilding them from the current edge list in both
//     the original and the resumed process, which makes the state at
//     each boundary a pure function of the checkpoint's contents.
//     GraphState.Edges and NewGraphStateFromEdges carry the graph side of
//     that rebuild.
//
// Chunking never perturbs the proposal trace: Runner.Run draws nothing
// between calls, so a loop that stops at a deterministic set of steps
// walks the same trace fresh or resumed from one of those stops.
package mcmc

import (
	"fmt"
	"math/rand"

	"wpinq/internal/graph"
	"wpinq/internal/incremental"
)

// CountingSource is a seeded rand.Source64 that counts draws, making
// the generator's position — and therefore its exact state —
// serializable as (seed, position). Every rand.Rand method consumes
// source draws deterministically (rejection loops included), so
// replaying the same logical call sequence consumes the same count.
type CountingSource struct {
	src rand.Source64
	n   uint64
}

// NewCountingSource returns a counting source over rand.NewSource(seed).
func NewCountingSource(seed int64) *CountingSource {
	// rand.NewSource's concrete type implements Source64 (documented in
	// math/rand); the assertion cannot fail.
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 draws from the wrapped source, counting the draw.
func (c *CountingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

// Uint64 draws from the wrapped source, counting the draw.
func (c *CountingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Seed reseeds the wrapped source and resets the position.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// Pos returns the number of draws consumed since seeding.
func (c *CountingSource) Pos() uint64 { return c.n }

// Skip fast-forwards the source by n draws, as if they had been
// consumed. Resume replays a checkpoint's construction prefix and then
// Skips to the recorded position.
func (c *CountingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.n += n
}

// Edges returns a copy of the current undirected edge list in its live
// order. The order is the bulk-load order permuted by accepted swaps
// (Apply overwrites slots I and J in place), and Propose indexes into
// it, so a resumed state must restore exactly this order — not a
// canonical sort — for the proposal stream to continue identically.
func (s *GraphState) Edges() []graph.Edge { return s.swaps.Edges() }

// NewGraphStateFromEdges builds a GraphState over a copy of edges, which
// must be normalized and duplicate-free — a checkpointed edge list, or a
// graph's EdgeList. isolated lists the graph's degree-zero nodes
// (degree-preserving swaps never create or absorb them, so the set is the
// seed graph's and need not be serialized; it is kept, not copied). The
// dataflow is loaded with two directed unit differences per edge, in the
// given order, as one push outside any transaction: that order seeds
// every downstream node's floating-point state, so a fresh fit and a
// checkpoint re-anchor must, and through this one function do, spell it
// the same way.
func NewGraphStateFromEdges(edges []graph.Edge, isolated []graph.Node, input Input) (*GraphState, error) {
	swaps, err := graph.NewSwaps(edges)
	if err != nil {
		return nil, fmt.Errorf("mcmc: checkpoint: %w", err)
	}
	batch := make([]incremental.Delta[graph.Edge], 0, 2*len(edges))
	for _, e := range edges {
		batch = append(batch,
			incremental.Delta[graph.Edge]{Record: e, Weight: 1},
			incremental.Delta[graph.Edge]{Record: e.Reverse(), Weight: 1},
		)
	}
	input.Push(batch)
	return &GraphState{swaps: swaps, isolated: isolated, input: input}, nil
}
