package synth

// Phase 2, the one way it runs. Every fit — one chain or a ladder,
// checkpointed or not, fresh or resumed — is K >= 1 chains built by
// newFit and driven by fit.run, the one chain loop. Each chain owns its
// plan, graph state and a counted rng seeded by one draw of the master
// rng; what the chains share is the caller's *Measurements: every chain
// attaches m.Fits[name] itself. A fit writes nothing into m: a
// core.Histogram is fixed at release and the noise it derives for a
// never-released record is a pure function of (salt, record), so
// concurrent chains race on nothing, observe the same value for the same
// record whatever their interleaving, and need no copy — and the
// residuals a fit reports are residuals against the histograms the caller
// holds (DESIGN.md "Replica exchange").
//
// The loop stops at every multiple of SwapEvery (more than one chain),
// of CheckpointEvery and of ProgressEvery (OnProgress set), and at the
// end, so the stop set is a function of the configuration alone. Between
// stops every chain runs on its own goroutine; Runner.Run draws nothing
// between calls, so extra stops never perturb the trace.
//
// CheckpointEvery > 0 adds re-anchor stops and nothing else: at each
// one every chain's pipelines, sinks and graph state are discarded and
// rebuilt from its current edge list, and only then is the checkpoint
// captured. The rebuild happens in every such run, interrupted or not,
// so the state at a boundary is a pure function of the checkpoint's
// contents and a resumed process continues the exact proposal trace the
// original would have produced (bit-identical final edge lists and
// accept/reject decisions; see DESIGN.md "Durable jobs").
// Re-anchoring replaces incrementally maintained float state with freshly
// accumulated state, which is why a checkpointed run's trace differs from
// a CheckpointEvery=0 run of the same seed.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/obs"
	"wpinq/internal/workload"
)

// The chain loop's metrics, written at its stops and never per proposal,
// so they add no work to the walk and draw nothing from any chain's rng.
var (
	// fitRound's clock is read twice per stop.
	fitRound = obs.Default.Histogram("wpinq_fit_round_seconds", "Wall seconds of each chunk of a fit between two stops (swap, checkpoint, progress or end), all chains.", nil)

	// A cumulative rate says nothing about now (a walk that froze an hour
	// ago still exports the rate it earned before): these two describe
	// only the chunk between the loop's last two stops.
	chunkAcceptRatio = obs.Default.HistogramVec("wpinq_fit_chunk_accept_ratio", "Per-chain share of proposals accepted in each chunk of a fit between two stops.",
		[]float64{0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}, "chain")
	chunkScoreDelta = obs.Default.GaugeVec("wpinq_fit_chunk_score_delta", "Per-chain fit score at the latest stop minus the score at the stop before (negative while the fit improves).", "chain")

	chainScore      = obs.Default.GaugeVec("wpinq_mcmc_chain_score", "Per-chain fit score at the latest swap-round barrier.", "chain")
	chainAcceptRate = obs.Default.GaugeVec("wpinq_mcmc_chain_accept_rate", "Per-chain cumulative proposal accept rate.", "chain")
	chainPow        = obs.Default.GaugeVec("wpinq_mcmc_chain_pow", "Per-chain posterior sharpening (ladder rung, moved by accepted swaps).", "chain")
)

// reanchorSeconds' clock is read at checkpoint stops only.
var reanchorSeconds = obs.Default.Histogram("wpinq_fit_reanchor_seconds",
	"Wall seconds to rebuild every chain of a fit from its edge list at one checkpoint stop (the checkpoint sink excluded).", nil)

// liveDerived makes the paper's Figure 3 failure mode — a fit spending
// its weight on records the release never contained, "fitting the noise"
// — visible from outside. Set at progress stops only.
var liveDerived = obs.Default.Gauge("wpinq_fit_live_derived_records",
	"Never-released records the best chain's synthetic graph currently gives weight, summed over its fit workloads.")

// The operator gauges answer "which operator is hot" from the running
// system: the best chain's engine profile (engine.Engine.Profile), set at
// progress stops and when a fit ends.
var (
	operatorRecords = obs.Default.GaugeVec("wpinq_fit_operator_records",
		"Differences a dataflow node of the best chain took (dir=in) and emitted (dir=out) since the chain's last anchor.", "node", "op", "dir")
	operatorState = obs.Default.GaugeVec("wpinq_fit_operator_state_records",
		"Records a stateful dataflow node of the best chain indexes.", "node", "op")
)

// fitChain is one chain's live resources plus the serializable identity
// (seed, counted rng) that lets a resumed process rebuild them.
type fitChain struct {
	seed   int64
	src    *mcmc.CountingSource
	rng    *rand.Rand
	runner *mcmc.Runner
	eng    *engine.Engine // the executor runner's plan runs on
}

// operators reads the chain's executor profile and exports it. Called
// with the chain parked: at a stop, or after the run.
func (ch *fitChain) operators() []OperatorProfile {
	prof := ch.eng.Profile()
	for _, p := range prof {
		node := strconv.Itoa(p.Index)
		operatorRecords.With(node, p.Op, "in").Set(float64(p.In))
		operatorRecords.With(node, p.Op, "out").Set(float64(p.Out))
		if p.State > 0 {
			operatorState.With(node, p.Op).Set(float64(p.State))
		}
	}
	return prof
}

// fit carries the shared context of one Phase 2 run.
type fit struct {
	m     *Measurements
	cfg   Config // validated
	names []string
	// isolated is the seed's degree-zero nodes. Swaps never create or
	// absorb one, so it holds for the whole fit and is recomputed from
	// the seed graph on resume instead of serialized.
	isolated []graph.Node
	seed     *graph.Graph
	chains   []*fitChain
	// stats is each chain's walk statistics and ladder position, indexed
	// like chains.
	stats    []ChainStats
	swapSeed int64
	swapSrc  *mcmc.CountingSource
	swapRng  *rand.Rand
}

// newFit builds the chains of a fit of names against m: at step 0 from
// the Phase 1 seed graph when ck is nil, else at ck's boundary. Either
// way it draws exactly one seed per chain and then the swap seed from
// the master rng — a resume replays those draws and refuses a checkpoint
// they do not reproduce — and every further draw comes from the chains'
// own counted rngs, whose positions a checkpoint records.
func newFit(m *Measurements, seed *graph.Graph, cfg Config, names []string, ck *Checkpoint, rng *rand.Rand) (*fit, error) {
	for _, name := range names {
		if _, ok := m.Fits[name]; !ok {
			return nil, fmt.Errorf("synth: %s fitting requested but not measured", name)
		}
	}
	f := &fit{
		m:        m,
		cfg:      cfg,
		names:    names,
		isolated: seed.Isolated(),
		seed:     seed,
		chains:   make([]*fitChain, cfg.Chains),
		stats:    make([]ChainStats, cfg.Chains),
	}
	for i := range f.chains {
		ch := &fitChain{seed: rng.Int63()}
		ch.src = mcmc.NewCountingSource(ch.seed)
		ch.rng = rand.New(ch.src)
		f.chains[i] = ch
		if ck == nil {
			// The ladder is geometric: chain 0 walks at the configured
			// target sharpening, each further chain at half the previous.
			pow := cfg.Pow / math.Pow(2, float64(i))
			if err := f.anchor(i, pow, nil); err != nil {
				return nil, err
			}
			f.stats[i] = ChainStats{Chain: i, Pow: pow, Stats: mcmc.Stats{FinalScore: ch.runner.Score()}}
			continue
		}
		cc := &ck.Chains[i]
		if ch.seed != cc.Seed {
			return nil, fmt.Errorf("%w: chain %d seed replay mismatch", ErrCheckpointStale, i)
		}
		ch.src.Skip(cc.RngPos)
		// Swaps keep every endpoint a seed vertex, whose id packs; an edge
		// naming any other id was not written by this fit.
		for _, e := range cc.Edges {
			if seed.Degree(e[0]) == 0 || seed.Degree(e[1]) == 0 {
				return nil, fmt.Errorf("%w: chain %d edge %d-%d is not between seed vertices", ErrCheckpointStale, i, e[0], e[1])
			}
		}
		if err := f.anchor(i, cc.Pow, cc); err != nil {
			return nil, err
		}
		// A checkpoint recording N > 1 shards was written by a sharded
		// executor whose float accumulation order came from a per-process
		// routing seed: it resumes at one partition, and its score bits
		// are not ours to reproduce.
		if got := math.Float64bits(ch.runner.Score()); ck.Shards == 1 && got != cc.ScoreBits {
			return nil, fmt.Errorf("%w: chain %d re-anchored score %x does not reproduce checkpointed %x",
				ErrCheckpointStale, i, got, cc.ScoreBits)
		}
		f.stats[i] = ChainStats{
			Chain:         i,
			Pow:           cc.Pow,
			SwapsProposed: cc.SwapsProposed,
			SwapsAccepted: cc.SwapsAccepted,
			Stats: mcmc.Stats{
				Steps:      ck.Step,
				Accepted:   cc.Accepted,
				Rejected:   cc.Rejected,
				Invalid:    cc.Invalid,
				FinalScore: ch.runner.Score(),
			},
		}
	}
	f.swapSeed = rng.Int63()
	f.swapSrc = mcmc.NewCountingSource(f.swapSeed)
	f.swapRng = rand.New(f.swapSrc)
	if ck != nil {
		if f.swapSeed != ck.SwapSeed {
			return nil, fmt.Errorf("%w: swap seed replay mismatch", ErrCheckpointStale)
		}
		f.swapSrc.Skip(ck.SwapPos)
	}
	return f, nil
}

// anchor (re)builds chain idx's plan, graph state and runner: every
// workload attached over its released domain, then the Phase 1 seed graph
// loaded when at is nil, else at's edges in their live order — the
// accumulations downstream are order-sensitive and must come out
// bit-for-bit. It consumes no rng.
func (f *fit) anchor(idx int, pow float64, at *ChainCheckpoint) error {
	plan := workload.NewPlan()
	for _, name := range f.names {
		if err := f.m.Fits[name].Attach(plan, f.m.Eps); err != nil {
			return fmt.Errorf("synth: chain %d: %w", idx, err)
		}
	}
	var edges []graph.Edge
	if at != nil {
		edges = unpackEdges(at.Edges)
	} else {
		edges = f.seed.EdgeList()
	}
	state, err := mcmc.NewGraphStateFromEdges(edges, f.isolated, plan.Input())
	if err != nil {
		return fmt.Errorf("synth: chain %d: %w", idx, err)
	}
	ch := f.chains[idx]
	runner, err := mcmc.NewRunner(state, plan.Scorer(), mcmc.Config{Pow: pow, RecomputeEvery: mcmc.DefaultRecomputeEvery}, ch.rng)
	if err != nil {
		return err
	}
	ch.runner, ch.eng = runner, plan.Engine()
	return nil
}

// SynthesizeResume continues a checkpointed fit, ck as LoadCheckpoint
// returned it (which vets its swap schedule). m and seed must be
// reconstructed with the same master rng stream the original run used
// (load the measurement, then SeedGraph, then call this, exactly as
// Synthesize's callers do): the function replays the chain and swap
// seed draws and verifies them against the checkpoint, so a different
// measurement or master seed fails with ErrCheckpointStale instead of
// silently diverging. The trace-relevant configuration (steps, chains,
// cadences) comes from the checkpoint; cfg supplies only
// observational hooks (progress, checkpoint sink) and ParentHash for the
// staleness check.
func SynthesizeResume(m *Measurements, seed *graph.Graph, ck *Checkpoint, cfg Config, rng *rand.Rand) (*Result, error) {
	if ck == nil {
		return nil, errors.New("synth: nil checkpoint")
	}
	if cfg.ParentHash != "" && ck.ParentHash != "" && cfg.ParentHash != ck.ParentHash {
		return nil, fmt.Errorf("%w: measurement hash %s, checkpoint parent %s", ErrCheckpointStale, cfg.ParentHash, ck.ParentHash)
	}
	if m.Eps != ck.Eps {
		return nil, fmt.Errorf("%w: measurement eps %v, checkpoint eps %v", ErrCheckpointStale, m.Eps, ck.Eps)
	}
	cfg.Eps = ck.Eps
	cfg.Workloads = append([]string(nil), ck.Workloads...)
	cfg.Steps = ck.Steps
	cfg.Chains = len(ck.Chains)
	cfg.SwapEvery = ck.SwapEvery
	cfg.CheckpointEvery = ck.CheckpointEvery
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ck.CheckpointEvery <= 0 || ck.Step < 0 || ck.Step > ck.Steps || ck.Step%ck.CheckpointEvery != 0 {
		return nil, fmt.Errorf("synth: checkpoint step %d is not a checkpoint boundary of every=%d", ck.Step, ck.CheckpointEvery)
	}
	if len(cfg.Workloads) == 0 {
		return nil, errors.New("synth: checkpoint names no fit workloads")
	}
	f, err := newFit(m, seed, cfg, cfg.Workloads, ck, rng)
	if err != nil {
		return nil, err
	}
	return f.run(ck)
}

// run is the one chain loop. It drives every chain to cfg.Steps — from
// ck's step, ladder and parity when the chains were built at a
// checkpoint — stopping to swap, re-anchor and report, and assembles the
// Result from the best chain.
func (f *fit) run(ck *Checkpoint) (*Result, error) {
	cfg := f.cfg
	var cadences []int // Validate made each positive
	if len(f.chains) > 1 {
		cadences = append(cadences, cfg.SwapEvery)
	}
	if cfg.CheckpointEvery > 0 {
		cadences = append(cadences, cfg.CheckpointEvery)
	}
	if cfg.OnProgress != nil {
		cadences = append(cadences, cfg.ProgressEvery)
	}
	// ladder[k] is the chain holding the k-th coldest rung: the geometric
	// ladder puts chain k there until swaps permute it.
	done, parity, ladder := 0, 0, make([]int, len(f.chains))
	for k := range ladder {
		ladder[k] = k
	}
	if ck != nil {
		done, parity = ck.Step, ck.Parity
		copy(ladder, ck.Ladder)
	}
	chunk := make([]mcmc.Stats, len(f.chains))
	cancelled := false
	for done < cfg.Steps && !cancelled {
		next := cfg.Steps
		for _, every := range cadences {
			next = min(next, done-done%every+every)
		}
		n := next - done
		began := time.Now()
		var wg sync.WaitGroup
		for i, ch := range f.chains {
			wg.Add(1)
			go func() {
				defer wg.Done()
				chunk[i] = ch.runner.Run(n)
			}()
		}
		wg.Wait()
		fitRound.Observe(time.Since(began).Seconds())
		for i := range f.stats {
			s := &f.stats[i]
			label := strconv.Itoa(i)
			chunkAcceptRatio.With(label).Observe(chunk[i].AcceptRate())
			chunkScoreDelta.With(label).Set(chunk[i].FinalScore - s.FinalScore)
			s.Steps += chunk[i].Steps
			s.Accepted += chunk[i].Accepted
			s.Rejected += chunk[i].Rejected
			s.Invalid += chunk[i].Invalid
			s.FinalScore = chunk[i].FinalScore
		}
		done = next
		if len(f.chains) > 1 && done < cfg.Steps && done%cfg.SwapEvery == 0 {
			runners := make([]*mcmc.Runner, len(f.chains))
			for i, ch := range f.chains {
				runners[i] = ch.runner
			}
			mcmc.Exchange(runners, f.stats, ladder, parity, f.swapRng)
			parity ^= 1
		}
		if cfg.CheckpointEvery > 0 && done < cfg.Steps && done%cfg.CheckpointEvery == 0 {
			ok, err := f.checkpoint(done, ladder, parity)
			if err != nil {
				return nil, err
			}
			cancelled = !ok
		}
		for i, s := range f.stats {
			label := strconv.Itoa(i)
			chainScore.With(label).Set(s.FinalScore)
			chainAcceptRate.With(label).Set(s.AcceptRate())
			chainPow.With(label).Set(s.Pow)
		}
		if !cancelled && cfg.OnProgress != nil {
			cancelled = !cfg.OnProgress(f.progress(done))
		}
	}
	b := f.best()
	best := f.chains[b]
	r := &Result{
		Seed:      f.seed,
		Synthetic: best.runner.State().Graph(),
		Stats:     f.stats[b].Stats,
		BestChain: b,
		TotalCost: f.m.TotalCost,
		Residuals: best.runner.Scorer().Residuals(residualTopK),
		Operators: best.operators(),
		Cancelled: cancelled,
	}
	if len(f.chains) > 1 {
		r.Chains = f.stats
	}
	return r, nil
}

// best returns the index of the chain with the lowest score, the first
// on a tie.
func (f *fit) best() int {
	b := 0
	for i := range f.stats {
		if f.stats[i].FinalScore < f.stats[b].FinalScore {
			b = i
		}
	}
	return b
}

// checkpoint rebuilds every chain from its live edge list, adopts the
// rebuilt scores, and emits the checkpoint describing exactly the
// rebuilt state. It reports false when OnCheckpoint cancels the fit.
func (f *fit) checkpoint(done int, ladder []int, parity int) (bool, error) {
	began := time.Now()
	ckChains := make([]ChainCheckpoint, len(f.chains))
	for i, ch := range f.chains {
		s, cc := &f.stats[i], &ckChains[i]
		*cc = ChainCheckpoint{
			Seed:          ch.seed,
			RngPos:        ch.src.Pos(),
			Pow:           s.Pow,
			Accepted:      s.Accepted,
			Rejected:      s.Rejected,
			Invalid:       s.Invalid,
			SwapsProposed: s.SwapsProposed,
			SwapsAccepted: s.SwapsAccepted,
			Edges:         packEdges(ch.runner.State().Edges()),
		}
		if err := f.anchor(i, cc.Pow, cc); err != nil {
			return false, err
		}
		// The rebuilt pipelines re-accumulate their scores from scratch;
		// the stats (and the next swap round) adopt the re-anchored
		// values a resumed process computes too.
		s.FinalScore = ch.runner.Score()
		cc.ScoreBits = math.Float64bits(s.FinalScore)
	}
	reanchorSeconds.Observe(time.Since(began).Seconds())
	if f.cfg.OnCheckpoint == nil {
		return true, nil
	}
	return f.cfg.OnCheckpoint(&Checkpoint{
		Version:         checkpointVersion,
		ParentHash:      f.cfg.ParentHash,
		Eps:             f.m.Eps,
		Workloads:       append([]string(nil), f.names...),
		Steps:           f.cfg.Steps,
		Step:            done,
		CheckpointEvery: f.cfg.CheckpointEvery,
		SwapEvery:       f.cfg.SwapEvery,
		Shards:          1,
		Ladder:          append([]int(nil), ladder...),
		Parity:          parity,
		SwapSeed:        f.swapSeed,
		SwapPos:         f.swapSrc.Pos(),
		Chains:          ckChains,
	}), nil
}

// progress assembles the OnProgress view of one stop: top-level fields
// track the best chain, whose scorer the residual breakdown reads and
// whose graph state Progress.Synthetic reads (every chain is parked at a
// stop, so neither read races anything).
func (f *fit) progress(done int) Progress {
	b := f.best()
	ch := f.chains[b]
	p := Progress{
		Step:      done,
		Steps:     f.cfg.Steps,
		Accepted:  f.stats[b].Accepted,
		Score:     f.stats[b].FinalScore,
		Residuals: ch.runner.Scorer().Residuals(residualTopK),
		Operators: ch.operators(),
		best:      ch.runner.State(),
	}
	if len(f.chains) > 1 {
		p.Chains = ChainSnapshots(f.stats)
	}
	live := 0
	for _, r := range p.Residuals {
		live += r.Bins - f.m.Fits[r.Workload].Hist.Len()
	}
	liveDerived.Set(float64(live))
	return p
}

// ChainSnapshots converts per-chain statistics to the ChainProgress wire
// view, in chain order. The curator service uses it to report finished
// jobs with the same shape the live progress callbacks carry.
func ChainSnapshots(chains []ChainStats) []ChainProgress {
	if len(chains) == 0 {
		return nil
	}
	out := make([]ChainProgress, len(chains))
	for i, c := range chains {
		out[i] = ChainProgress{
			Chain:    c.Chain,
			Pow:      c.Pow,
			Accepted: c.Accepted,
			Swaps:    c.SwapsAccepted,
			Score:    c.FinalScore,
		}
	}
	return out
}
