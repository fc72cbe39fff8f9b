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
//     running. RunDurable therefore *re-anchors* at every checkpoint
//     boundary — the Reanchor callback discards the live pipelines and
//     rebuilds them from the current edge list in both the original and
//     the resumed process — making the state at each boundary a pure
//     function of the checkpoint's contents. GraphState.Edges and
//     NewGraphStateFromEdges carry the graph side of that rebuild.
//
// The alignment contract: RunDurable stops at every multiple of
// SwapEvery, CheckpointEvery, and RoundEvery, so the stop set — and
// with it the swap and re-anchor schedule — is a deterministic function
// of the configuration alone. Chunking never perturbs the proposal
// trace (Runner.Run draws nothing between chunks), so a resumed run
// starting at a checkpoint multiple walks the identical schedule.
package mcmc

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

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

// DurableConfig parameterizes RunDurable.
type DurableConfig struct {
	// Steps is the total walk length of every chain, counted from step
	// 0 — not from StartStep.
	Steps int
	// StartStep is the number of steps already completed (a resumed run
	// starts at its checkpoint's step; fresh runs start at 0).
	StartStep int
	// SwapEvery is the replica-swap cadence (default 1024; only
	// consulted with more than one chain).
	SwapEvery int
	// CheckpointEvery is the re-anchor/checkpoint cadence; 0 disables
	// checkpoint stops entirely.
	CheckpointEvery int
	// RoundEvery adds extra observation stops at its multiples (0 for
	// none); OnRound also fires at every swap/checkpoint stop and at the
	// end. Extra stops never perturb the trace: chunking draws nothing.
	RoundEvery int
	// Ladder is the rung→chain assignment to start from (a permutation
	// of chain indices, coldest first), carried by a checkpoint; nil
	// derives it from the runners' pow values, largest first.
	Ladder []int
	// Parity selects which adjacent-pair set the next swap round
	// proposes (0 fresh; a checkpoint carries the live value).
	Parity int
	// Stats seeds the per-chain statistics (resume); nil starts fresh.
	Stats []ChainStats
	// Reanchor fires at every CheckpointEvery multiple strictly before
	// Steps, with all chains parked. It rebuilds the runners from their
	// current edge lists (and typically emits a checkpoint), returning
	// the replacements; returning ok=false cancels the run at this
	// boundary. The callback must not consume any chain's rng.
	Reanchor func(done int, runners []*Runner, ladder []int, parity int, stats []ChainStats) (next []*Runner, ok bool, err error)
	// OnRound observes the per-chain statistics at every stop;
	// returning false cancels the run.
	OnRound func(done int, chains []ChainStats) bool
}

// RunDurable is the one chain loop: it drives len(runners) chains
// concurrently for cfg.Steps steps each, with Metropolis swap rounds
// between temperature-adjacent chains at every SwapEvery multiple and
// deterministic re-anchor stops at every CheckpointEvery multiple. Each
// runner must have its own GraphState, scoring pipeline and rng, so the
// per-chunk goroutines race on nothing and a run is deterministic for
// fixed runner seeds and a fixed swapRng. A fresh run and one resumed
// from any of its checkpoints compute the identical stop set and
// therefore the identical proposal, swap, and re-anchor trace.
//
// A single runner with no checkpoint stops degenerates to exactly that
// runner's Run(cfg.Steps) proposal trace (no swap rounds; swapRng is
// unused and may be nil).
func RunDurable(runners []*Runner, cfg DurableConfig, swapRng *rand.Rand) (ReplicaResult, error) {
	if len(runners) == 0 {
		return ReplicaResult{}, errors.New("mcmc: a chain run requires at least one chain")
	}
	for _, r := range runners {
		if r == nil {
			return ReplicaResult{}, errors.New("mcmc: nil chain runner")
		}
	}
	if cfg.Steps < 0 || cfg.StartStep < 0 || cfg.StartStep > cfg.Steps {
		return ReplicaResult{}, errors.New("mcmc: need 0 <= StartStep <= Steps")
	}
	if len(runners) > 1 && swapRng == nil {
		return ReplicaResult{}, errors.New("mcmc: swapRng is required for more than one chain")
	}
	if cfg.CheckpointEvery > 0 && cfg.Reanchor == nil {
		return ReplicaResult{}, errors.New("mcmc: CheckpointEvery > 0 requires a Reanchor callback")
	}
	swapEvery := cfg.SwapEvery
	if swapEvery <= 0 {
		swapEvery = defaultSwapEvery
	}

	stats := make([]ChainStats, len(runners))
	if cfg.Stats != nil {
		if len(cfg.Stats) != len(runners) {
			return ReplicaResult{}, errors.New("mcmc: Stats length must match the chain count")
		}
		copy(stats, cfg.Stats)
	} else {
		for i, r := range runners {
			// Seed FinalScore with the current score so zero-step runs
			// report the actual state of the walk, not 0.
			stats[i] = ChainStats{Chain: i, Pow: r.cfg.Pow, Stats: Stats{FinalScore: r.Score()}}
		}
	}
	// ladder[k] is the chain currently holding the k-th coldest rung
	// (largest pow first). Swaps permute this assignment.
	ladder := make([]int, len(runners))
	if cfg.Ladder != nil {
		if len(cfg.Ladder) != len(runners) {
			return ReplicaResult{}, errors.New("mcmc: Ladder length must match the chain count")
		}
		seen := make([]bool, len(runners))
		for _, c := range cfg.Ladder {
			if c < 0 || c >= len(runners) || seen[c] {
				return ReplicaResult{}, errors.New("mcmc: Ladder must be a permutation of the chain indices")
			}
			seen[c] = true
		}
		copy(ladder, cfg.Ladder)
	} else {
		for i := range ladder {
			ladder[i] = i
		}
		sort.SliceStable(ladder, func(a, b int) bool {
			return runners[ladder[a]].cfg.Pow > runners[ladder[b]].cfg.Pow
		})
	}
	parity := cfg.Parity

	res := ReplicaResult{Chains: stats}
	chunk := make([]Stats, len(runners))
	for done := cfg.StartStep; done < cfg.Steps; {
		next := cfg.Steps
		if len(runners) > 1 {
			next = min(next, done-done%swapEvery+swapEvery)
		}
		if cfg.CheckpointEvery > 0 {
			next = min(next, done-done%cfg.CheckpointEvery+cfg.CheckpointEvery)
		}
		if cfg.RoundEvery > 0 {
			next = min(next, done-done%cfg.RoundEvery+cfg.RoundEvery)
		}
		n := next - done
		//wpinq:nondeterministic-ok observability timestamp, read once per stop and only ever handed to the fitRound histogram
		began := time.Now()
		var wg sync.WaitGroup
		for i := range runners {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				chunk[i] = runners[i].Run(n)
			}(i)
		}
		wg.Wait()
		fitRound.Observe(time.Since(began).Seconds())
		for i := range runners {
			s := &stats[i]
			recordChunk(s.Chain, chunk[i], s.FinalScore)
			s.Steps += chunk[i].Steps
			s.Accepted += chunk[i].Accepted
			s.Rejected += chunk[i].Rejected
			s.Invalid += chunk[i].Invalid
			s.FinalScore = chunk[i].FinalScore
		}
		done = next
		if len(runners) > 1 && done < cfg.Steps && done%swapEvery == 0 {
			exchange(runners, stats, ladder, parity, swapRng)
			parity ^= 1
		}
		if cfg.CheckpointEvery > 0 && done < cfg.Steps && done%cfg.CheckpointEvery == 0 {
			replaced, ok, err := cfg.Reanchor(done, runners, ladder, parity, stats)
			if err != nil {
				return res, err
			}
			if replaced != nil {
				if len(replaced) != len(runners) {
					return res, errors.New("mcmc: Reanchor changed the chain count")
				}
				runners = replaced
				// The rebuilt pipelines re-accumulate their scores from
				// scratch; adopt them so the stats (and the next swap
				// round) see the re-anchored values both sides agree on.
				for i := range stats {
					stats[i].FinalScore = runners[i].Score()
				}
			}
			if !ok {
				res.Cancelled = true
				recordChains(stats)
				break
			}
		}
		recordChains(stats)
		if cfg.OnRound != nil {
			snap := make([]ChainStats, len(stats))
			copy(snap, stats)
			if !cfg.OnRound(done, snap) {
				res.Cancelled = true
				break
			}
		}
	}
	for i := range stats {
		if stats[i].FinalScore < stats[res.Best].FinalScore {
			res.Best = i
		}
	}
	return res, nil
}
