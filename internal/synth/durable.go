package synth

// Durable Phase 2: a checkpointable fit. CheckpointEvery > 0 selects
// this mode, in which the fit — single- or multi-chain — runs through
// mcmc.RunDurable and *re-anchors* at every checkpoint boundary: each
// chain's pipelines, sinks, and graph state are discarded and rebuilt
// from its current edge list and observation history, and only then is
// the checkpoint captured. The rebuild happens in every durable run,
// interrupted or not, so the state at a boundary is a pure function of
// the checkpoint's contents and a resumed process continues the exact
// proposal trace the original would have produced (bit-identical final
// edge lists and accept/reject decisions at one shard; see DESIGN.md
// "Durable jobs").
//
// The price of durability is a different trace from the non-durable
// path (re-anchoring replaces incrementally maintained float state with
// freshly accumulated state, and every chain draws from a counted rng):
// CheckpointEvery=0 runs are byte-for-byte what they always were.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/workload"
)

// durableChain is one chain's live resources plus the serializable
// identity (seed, counted rng) that lets a resumed process rebuild
// them.
type durableChain struct {
	seed   int64
	src    *mcmc.CountingSource
	rng    *rand.Rand
	fits   []workload.Measured // reseeded copies, indexed like the run's names
	plan   *workload.Plan
	state  *mcmc.GraphState
	runner *mcmc.Runner
}

// durableRun carries the shared context of one durable fit.
type durableRun struct {
	m        *Measurements
	cfg      Config
	names    []string
	shards   int // resolved executor width (recorded in checkpoints)
	isolated []graph.Node
	seed     *graph.Graph
	chains   []*durableChain
	swapSeed int64
	swapSrc  *mcmc.CountingSource
	swapRng  *rand.Rand
}

// isolatedNodes returns g's degree-zero nodes in ascending order.
// Degree-preserving swaps never create or absorb isolated nodes, so the
// set is invariant over the whole fit and is recomputed from the seed
// graph instead of serialized.
func isolatedNodes(g *graph.Graph) []graph.Node {
	var out []graph.Node
	for _, v := range g.Nodes() {
		if g.Degree(v) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// resolveDurableShards pins the executor width before the first step:
// auto-sharding must resolve identically in the original and the
// resuming process, so the resolved value (not the 0 request) is what
// checkpoints record.
func resolveDurableShards(cfg Config) int {
	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0) / cfg.Chains
		if shards < 1 {
			shards = 1
		}
	}
	return shards
}

// newDurableChain draws nothing from the master rng itself: the caller
// passes the chain seed, and every further draw (one reseed salt per
// fit workload) comes from the chain's own counted rng, so the
// construction prefix replays exactly on resume.
func newDurableChain(m *Measurements, names []string, seed int64) (*durableChain, error) {
	ch := &durableChain{seed: seed, src: mcmc.NewCountingSource(seed)}
	ch.rng = rand.New(ch.src)
	ch.fits = make([]workload.Measured, len(names))
	for k, name := range names {
		fit, ok := m.Fits[name]
		if !ok {
			return nil, fmt.Errorf("synth: %s fitting requested but not measured", name)
		}
		rf, err := fit.Reseed(m.Eps, ch.rng)
		if err != nil {
			return nil, fmt.Errorf("synth: chain: %w", err)
		}
		ch.fits[k] = rf
	}
	return ch, nil
}

// anchorFresh builds the chain's step-0 pipelines against the Phase 1
// seed graph, exactly as the non-durable paths would.
func (ch *durableChain) anchorFresh(d *durableRun, idx int, pow float64, seedG *graph.Graph) error {
	plan := workload.NewPlanFused(d.shards, !d.cfg.NoFuse)
	for k := range d.names {
		if err := ch.fits[k].Attach(plan, d.m.Eps); err != nil {
			return fmt.Errorf("synth: chain %d: %w", idx, err)
		}
	}
	state := mcmc.NewGraphState(seedG, plan.Input())
	return ch.finishAnchor(d, idx, pow, 0, plan, state, true)
}

// anchorAt rebuilds the chain's pipelines at a boundary: sinks replay
// the recorded observation order, the graph state replays the live edge
// order, and the runner resumes the step count. It consumes no rng.
func (ch *durableChain) anchorAt(d *durableRun, idx int, pow float64, step int, edges []graph.Edge, obs []ObservationKeys) error {
	if len(obs) != len(d.names) {
		return fmt.Errorf("synth: chain %d has %d observation sets for %d workloads", idx, len(obs), len(d.names))
	}
	plan := workload.NewPlanFused(d.shards, !d.cfg.NoFuse)
	for k, name := range d.names {
		if obs[k].Workload != name {
			return fmt.Errorf("synth: chain %d observation set %d is for %q, want %q", idx, k, obs[k].Workload, name)
		}
		if err := ch.fits[k].AttachWithDomain(plan, d.m.Eps, obs[k].Keys); err != nil {
			return fmt.Errorf("synth: chain %d: %w", idx, err)
		}
	}
	state, err := mcmc.NewGraphStateFromEdges(edges, d.isolated, plan.Input())
	if err != nil {
		return fmt.Errorf("synth: chain %d: %w", idx, err)
	}
	return ch.finishAnchor(d, idx, pow, step, plan, state, false)
}

func (ch *durableChain) finishAnchor(d *durableRun, idx int, pow float64, step int, plan *workload.Plan, state *mcmc.GraphState, initial bool) error {
	mcfg := mcmc.Config{Pow: pow, RecomputeEvery: d.cfg.RecomputeEvery}
	if idx == 0 {
		mcfg.OnStep = sampledOnStep(d.cfg, state, initial)
	}
	runner, err := mcmc.NewRunner(state, plan.Scorer(), mcfg, ch.rng)
	if err != nil {
		return err
	}
	runner.SetStep(step)
	ch.plan, ch.state, ch.runner = plan, state, runner
	return nil
}

// synthesizeDurable is the CheckpointEvery > 0 entry point from
// Synthesize: a fresh durable fit starting at step 0.
func synthesizeDurable(m *Measurements, seed *graph.Graph, cfg Config, names []string, rng *rand.Rand) (*Result, error) {
	d := &durableRun{
		m:        m,
		cfg:      cfg,
		names:    names,
		shards:   resolveDurableShards(cfg),
		isolated: isolatedNodes(seed),
		seed:     seed,
	}
	ladder := cfg.PowLadder
	if len(ladder) == 0 {
		ladder = make([]float64, cfg.Chains)
		for i := range ladder {
			ladder[i] = cfg.Pow / math.Pow(2, float64(i))
		}
	}
	d.chains = make([]*durableChain, cfg.Chains)
	for i := range d.chains {
		ch, err := newDurableChain(m, names, rng.Int63())
		if err != nil {
			return nil, err
		}
		if err := ch.anchorFresh(d, i, ladder[i], seed); err != nil {
			return nil, err
		}
		d.chains[i] = ch
	}
	d.swapSeed = rng.Int63()
	d.swapSrc = mcmc.NewCountingSource(d.swapSeed)
	d.swapRng = rand.New(d.swapSrc)
	return d.run(0, nil, 0, nil)
}

// SynthesizeResume continues a durable fit from a checkpoint. m and
// seed must be reconstructed with the same master rng stream the
// original run used (load the measurement, then SeedGraph, then call
// this, exactly as Synthesize's callers do): the function replays the
// construction draws and verifies them against the checkpoint, so a
// different measurement or master seed fails with ErrCheckpointStale
// instead of silently diverging. The trace-relevant configuration
// (steps, chains, cadences, executor width) comes from the checkpoint;
// cfg supplies only observational hooks (progress, sampling, checkpoint
// sink) and ParentHash for the staleness check.
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
	cfg.RecomputeEvery = ck.RecomputeEvery
	cfg.Shards = ck.Shards
	cfg.NoFuse = ck.NoFuse
	cfg.PowSchedule = nil
	cfg.PowLadder = nil
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ck.CheckpointEvery <= 0 || ck.Step < 0 || ck.Step > ck.Steps || ck.Step%ck.CheckpointEvery != 0 {
		return nil, fmt.Errorf("synth: checkpoint step %d is not a checkpoint boundary of every=%d", ck.Step, ck.CheckpointEvery)
	}
	names := append([]string(nil), ck.Workloads...)
	if len(names) == 0 {
		return nil, errors.New("synth: checkpoint names no fit workloads")
	}
	d := &durableRun{
		m:        m,
		cfg:      cfg,
		names:    names,
		shards:   cfg.Shards,
		isolated: isolatedNodes(seed),
		seed:     seed,
	}
	d.chains = make([]*durableChain, len(ck.Chains))
	stats := make([]mcmc.ChainStats, len(ck.Chains))
	for i := range ck.Chains {
		cc := &ck.Chains[i]
		seedVal := rng.Int63()
		if seedVal != cc.Seed {
			return nil, fmt.Errorf("%w: chain %d seed replay mismatch", ErrCheckpointStale, i)
		}
		ch, err := newDurableChain(m, names, seedVal)
		if err != nil {
			return nil, err
		}
		if ch.src.Pos() > cc.RngPos {
			return nil, fmt.Errorf("%w: chain %d rng position %d precedes its construction prefix (%d draws)", ErrCheckpointStale, i, cc.RngPos, ch.src.Pos())
		}
		ch.src.Skip(cc.RngPos - ch.src.Pos())
		if err := ch.anchorAt(d, i, cc.Pow, ck.Step, unpackEdges(cc.Edges), cc.Observations); err != nil {
			return nil, err
		}
		// Score verification is meaningful only under the cross-process
		// determinism contract: one shard. Multi-shard runs route records
		// by a per-process maphash seed, so their float accumulation order
		// legitimately differs across processes — and a checkpoint that
		// recorded -1 was written by the retired reference engine, whose
		// delivery order summed the same terms to different last bits; it
		// resumes at one shard on the score this executor derives.
		if ck.Shards == 1 && math.Float64bits(ch.runner.Score()) != cc.ScoreBits {
			return nil, fmt.Errorf("%w: chain %d re-anchored score %x does not reproduce checkpointed %x",
				ErrCheckpointStale, i, math.Float64bits(ch.runner.Score()), cc.ScoreBits)
		}
		d.chains[i] = ch
		stats[i] = mcmc.ChainStats{
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
	swapSeed := rng.Int63()
	if swapSeed != ck.SwapSeed {
		return nil, fmt.Errorf("%w: swap seed replay mismatch", ErrCheckpointStale)
	}
	d.swapSeed = swapSeed
	d.swapSrc = mcmc.NewCountingSource(swapSeed)
	d.swapSrc.Skip(ck.SwapPos)
	d.swapRng = rand.New(d.swapSrc)
	return d.run(ck.Step, append([]int(nil), ck.Ladder...), ck.Parity, stats)
}

// run drives the durable fit from startStep and assembles the Result.
func (d *durableRun) run(startStep int, ladder []int, parity int, stats []mcmc.ChainStats) (*Result, error) {
	cfg := d.cfg
	runners := make([]*mcmc.Runner, len(d.chains))
	for i, ch := range d.chains {
		runners[i] = ch.runner
	}
	dcfg := mcmc.DurableConfig{
		Steps:           cfg.Steps,
		StartStep:       startStep,
		SwapEvery:       cfg.SwapEvery,
		CheckpointEvery: cfg.CheckpointEvery,
		Ladder:          ladder,
		Parity:          parity,
		Stats:           stats,
		Reanchor:        d.reanchor,
	}
	if cfg.OnProgress != nil {
		dcfg.RoundEvery = cfg.ProgressEvery
		dcfg.OnRound = func(done int, chains []mcmc.ChainStats) bool {
			return cfg.OnProgress(d.progress(done, chains))
		}
	}
	res, err := mcmc.RunDurable(runners, dcfg, d.swapRng)
	if err != nil {
		return nil, err
	}
	best := d.chains[res.Best]
	r := &Result{
		Seed:      d.seed,
		Synthetic: best.state.Graph(),
		Stats:     res.Chains[res.Best].Stats,
		BestChain: res.Best,
		TotalCost: d.m.TotalCost,
		Residuals: best.runner.Scorer().Residuals(residualTopK),
		Cancelled: res.Cancelled,
	}
	if len(d.chains) > 1 {
		r.Chains = res.Chains
	}
	return r, nil
}

// reanchor is the mcmc.DurableConfig.Reanchor hook: rebuild every chain
// from its live edge list and observation history, then emit the
// checkpoint describing exactly the rebuilt state.
func (d *durableRun) reanchor(done int, _ []*mcmc.Runner, ladder []int, parity int, stats []mcmc.ChainStats) ([]*mcmc.Runner, bool, error) {
	ckChains := make([]ChainCheckpoint, len(d.chains))
	for i, ch := range d.chains {
		obs, err := ch.plan.Observations()
		if err != nil {
			return nil, false, err
		}
		keys := make([]ObservationKeys, len(obs))
		for k, o := range obs {
			keys[k] = ObservationKeys{Workload: o.Workload, Keys: o.Keys}
		}
		edges := ch.state.Edges()
		if err := ch.anchorAt(d, i, stats[i].Pow, done, edges, keys); err != nil {
			return nil, false, err
		}
		ckChains[i] = ChainCheckpoint{
			Seed:          ch.seed,
			RngPos:        ch.src.Pos(),
			Pow:           stats[i].Pow,
			ScoreBits:     math.Float64bits(ch.runner.Score()),
			Accepted:      stats[i].Accepted,
			Rejected:      stats[i].Rejected,
			Invalid:       stats[i].Invalid,
			SwapsProposed: stats[i].SwapsProposed,
			SwapsAccepted: stats[i].SwapsAccepted,
			Edges:         packEdges(edges),
			Observations:  keys,
		}
	}
	next := make([]*mcmc.Runner, len(d.chains))
	for i, ch := range d.chains {
		next[i] = ch.runner
	}
	ok := true
	if d.cfg.OnCheckpoint != nil {
		ck := &Checkpoint{
			Version:         checkpointVersion,
			ParentHash:      d.cfg.ParentHash,
			Eps:             d.m.Eps,
			Workloads:       append([]string(nil), d.names...),
			Steps:           d.cfg.Steps,
			Step:            done,
			CheckpointEvery: d.cfg.CheckpointEvery,
			SwapEvery:       d.cfg.SwapEvery,
			RecomputeEvery:  d.cfg.RecomputeEvery,
			Shards:          d.shards,
			NoFuse:          d.cfg.NoFuse,
			Ladder:          append([]int(nil), ladder...),
			Parity:          parity,
			SwapSeed:        d.swapSeed,
			SwapPos:         d.swapSrc.Pos(),
			Chains:          ckChains,
		}
		ok = d.cfg.OnCheckpoint(ck)
	}
	return next, ok, nil
}

// progress assembles the OnProgress view from a durable-run stop.
func (d *durableRun) progress(done int, chains []mcmc.ChainStats) Progress {
	best := 0
	for i := range chains {
		if chains[i].FinalScore < chains[best].FinalScore {
			best = i
		}
	}
	p := Progress{
		Step:      done,
		Steps:     d.cfg.Steps,
		Accepted:  chains[best].Accepted,
		Score:     chains[best].FinalScore,
		Residuals: d.chains[chains[best].Chain].runner.Scorer().Residuals(residualTopK),
	}
	if len(chains) > 1 {
		p.Chains = ChainSnapshots(chains)
	}
	return p
}
