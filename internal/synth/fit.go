package synth

// Phase 2, the one way it runs. Every fit — one chain or a ladder,
// checkpointed or not, fresh or resumed — is K >= 1 chains built by
// newFit and driven by one mcmc.RunDurable call. Each chain owns its
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
	"time"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/obs"
	"wpinq/internal/workload"
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
	}
	for i := range f.chains {
		ch := &fitChain{seed: rng.Int63()}
		ch.src = mcmc.NewCountingSource(ch.seed)
		ch.rng = rand.New(ch.src)
		f.chains[i] = ch
		if ck == nil {
			// The ladder is geometric: chain 0 walks at the configured
			// target sharpening, each further chain at half the previous.
			if err := f.anchor(i, cfg.Pow/math.Pow(2, float64(i)), nil); err != nil {
				return nil, err
			}
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
	edges := f.seed.EdgeList()
	if at != nil {
		edges = unpackEdges(at.Edges)
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

// SynthesizeResume continues a checkpointed fit. m and seed must be
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

// run drives the fit — from ck's step, ladder and statistics when the
// chains were built at a checkpoint — and assembles the Result.
func (f *fit) run(ck *Checkpoint) (*Result, error) {
	cfg := f.cfg
	runners := make([]*mcmc.Runner, len(f.chains))
	for i, ch := range f.chains {
		runners[i] = ch.runner
	}
	dcfg := mcmc.DurableConfig{
		Steps:           cfg.Steps,
		SwapEvery:       cfg.SwapEvery,
		CheckpointEvery: cfg.CheckpointEvery,
	}
	if cfg.CheckpointEvery > 0 {
		dcfg.Reanchor = f.reanchor
	}
	if cfg.OnProgress != nil {
		// Extra stops never perturb the trace, so a fit is observable and
		// stoppable without changing its result.
		dcfg.RoundEvery = cfg.ProgressEvery
		dcfg.OnRound = func(done int, chains []mcmc.ChainStats) bool {
			return cfg.OnProgress(f.progress(done, chains))
		}
	}
	if ck != nil {
		dcfg.StartStep = ck.Step
		dcfg.Ladder = append([]int(nil), ck.Ladder...)
		dcfg.Parity = ck.Parity
		dcfg.Stats = make([]mcmc.ChainStats, len(ck.Chains))
		for i, cc := range ck.Chains {
			dcfg.Stats[i] = mcmc.ChainStats{
				Chain:         i,
				Pow:           cc.Pow,
				SwapsProposed: cc.SwapsProposed,
				SwapsAccepted: cc.SwapsAccepted,
				Stats: mcmc.Stats{
					Steps:      ck.Step,
					Accepted:   cc.Accepted,
					Rejected:   cc.Rejected,
					Invalid:    cc.Invalid,
					FinalScore: runners[i].Score(),
				},
			}
		}
	}
	res, err := mcmc.RunDurable(runners, dcfg, f.swapRng)
	if err != nil {
		return nil, err
	}
	best := f.chains[res.Best]
	r := &Result{
		Seed:      f.seed,
		Synthetic: best.runner.State().Graph(),
		Stats:     res.Chains[res.Best].Stats,
		BestChain: res.Best,
		TotalCost: f.m.TotalCost,
		Residuals: best.runner.Scorer().Residuals(residualTopK),
		Operators: best.operators(),
		Cancelled: res.Cancelled,
	}
	if len(f.chains) > 1 {
		r.Chains = res.Chains
	}
	return r, nil
}

// reanchor is the mcmc.DurableConfig.Reanchor hook: rebuild every chain
// from its live edge list, then emit the checkpoint describing exactly
// the rebuilt state.
func (f *fit) reanchor(done int, _ []*mcmc.Runner, ladder []int, parity int, stats []mcmc.ChainStats) ([]*mcmc.Runner, bool, error) {
	began := time.Now()
	ckChains := make([]ChainCheckpoint, len(f.chains))
	next := make([]*mcmc.Runner, len(f.chains))
	for i, ch := range f.chains {
		cc := &ckChains[i]
		*cc = ChainCheckpoint{
			Seed:          ch.seed,
			RngPos:        ch.src.Pos(),
			Pow:           stats[i].Pow,
			Accepted:      stats[i].Accepted,
			Rejected:      stats[i].Rejected,
			Invalid:       stats[i].Invalid,
			SwapsProposed: stats[i].SwapsProposed,
			SwapsAccepted: stats[i].SwapsAccepted,
			Edges:         packEdges(ch.runner.State().Edges()),
		}
		if err := f.anchor(i, cc.Pow, cc); err != nil {
			return nil, false, err
		}
		cc.ScoreBits = math.Float64bits(ch.runner.Score())
		next[i] = ch.runner
	}
	reanchorSeconds.Observe(time.Since(began).Seconds())
	if f.cfg.OnCheckpoint == nil {
		return next, true, nil
	}
	return next, f.cfg.OnCheckpoint(&Checkpoint{
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
func (f *fit) progress(done int, chains []mcmc.ChainStats) Progress {
	best := 0
	for i := range chains {
		if chains[i].FinalScore < chains[best].FinalScore {
			best = i
		}
	}
	ch := f.chains[chains[best].Chain]
	p := Progress{
		Step:      done,
		Steps:     f.cfg.Steps,
		Accepted:  chains[best].Accepted,
		Score:     chains[best].FinalScore,
		Residuals: ch.runner.Scorer().Residuals(residualTopK),
		Operators: ch.operators(),
		best:      ch.runner.State(),
	}
	if len(chains) > 1 {
		p.Chains = ChainSnapshots(chains)
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
