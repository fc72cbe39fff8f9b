package synth

// Phase 2, the one way it runs. Every fit — checkpointed or not, fresh or
// resumed — is one chain built by newFit and driven by fit.run, the one
// chain loop: one plan, one graph state and one counted rng seeded by the
// master rng's one draw. The chain attaches m.Fits[name] itself and writes
// nothing into m: a core.Histogram is fixed at release and the noise it
// derives for a never-released record is a pure function of (salt,
// record), so fits that share one *Measurements — a caller keeping the
// best of K, say — race on nothing and observe the same value for the
// same record, and the residuals a fit reports are residuals against the
// histograms the caller holds (DESIGN.md "A fit is one chain").
//
// The loop stops at every multiple of CheckpointEvery and of ProgressEvery
// (OnProgress set), and at the end, so the stop set is a function of the
// configuration alone. Between stops the chain runs on the caller's
// goroutine; Runner.Run draws nothing between calls, so extra stops never
// perturb the trace.
//
// CheckpointEvery > 0 adds re-anchor stops and nothing else: at each one
// the chain's pipelines, sinks and graph state are discarded and rebuilt
// from its current edge list, and only then is the checkpoint captured.
// The rebuild happens in every such run, interrupted or not, so the state
// at a boundary is a pure function of the checkpoint's contents and a
// resumed process continues the exact proposal trace the original would
// have produced (bit-identical final edge lists and accept/reject
// decisions; see DESIGN.md "Durable jobs").
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

// The chain loop's metrics, written at its stops and never per proposal,
// so they add no work to the walk and draw nothing from the chain's rng.
var (
	// fitRound's clock is read twice per stop.
	fitRound = obs.Default.Histogram("wpinq_fit_round_seconds", "Wall seconds of each chunk of a fit between two stops (checkpoint, progress or end).", nil)

	// A cumulative rate says nothing about now (a walk that froze an hour
	// ago still exports the rate it earned before): these two describe
	// only the chunk between the loop's last two stops.
	chunkAcceptRatio = obs.Default.Histogram("wpinq_fit_chunk_accept_ratio", "Share of proposals accepted in each chunk of a fit between two stops.",
		[]float64{0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1})
	chunkScoreDelta = obs.Default.Gauge("wpinq_fit_chunk_score_delta", "Fit score at the latest stop minus the score at the stop before (negative while the fit improves).")

	chainScore      = obs.Default.Gauge("wpinq_mcmc_chain_score", "Fit score at the latest stop.")
	chainAcceptRate = obs.Default.Gauge("wpinq_mcmc_chain_accept_rate", "Cumulative proposal accept rate of the latest fit.")
)

// reanchorSeconds' clock is read at checkpoint stops only.
var reanchorSeconds = obs.Default.Histogram("wpinq_fit_reanchor_seconds",
	"Wall seconds to rebuild a fit from its edge list at one checkpoint stop (the checkpoint sink excluded).", nil)

// liveDerived makes the paper's Figure 3 failure mode — a fit spending
// its weight on records the release never contained, "fitting the noise"
// — visible from outside. Set at progress stops only.
var liveDerived = obs.Default.Gauge("wpinq_fit_live_derived_records",
	"Never-released records the synthetic graph currently gives weight, summed over its fit workloads.")

// The operator gauges answer "which operator is hot" from the running
// system: the chain's engine profile (engine.Engine.Profile), set at
// progress stops and when a fit ends.
var (
	operatorRecords = obs.Default.GaugeVec("wpinq_fit_operator_records",
		"Differences a dataflow node of the fit took (dir=in) and emitted (dir=out) since the chain's last anchor.", "node", "op", "dir")
	operatorState = obs.Default.GaugeVec("wpinq_fit_operator_state_records",
		"Records a stateful dataflow node of the fit indexes.", "node", "op")
)

// fit is one Phase 2 run: the shared context, the chain's live resources,
// and the serializable identity (seed, counted rng) that lets a resumed
// process rebuild them.
type fit struct {
	m     *Measurements
	cfg   Config // validated
	names []string
	// isolated is the seed's degree-zero nodes. Swaps never create or
	// absorb one, so it holds for the whole fit and is recomputed from
	// the seed graph on resume instead of serialized.
	isolated []graph.Node
	seed     *graph.Graph

	chainSeed int64
	src       *mcmc.CountingSource
	rng       *rand.Rand
	runner    *mcmc.Runner
	eng       *engine.Engine // the executor runner's plan runs on
	stats     mcmc.Stats     // the walk so far
}

// newFit builds the chain of a fit of names against m: at step 0 from the
// Phase 1 seed graph when ck is nil, else at ck's boundary. Either way it
// draws exactly one seed from the master rng — a resume replays that draw
// and refuses a checkpoint it does not reproduce — and every further draw
// comes from the chain's own counted rng, whose position a checkpoint
// records.
func newFit(m *Measurements, seed *graph.Graph, cfg Config, names []string, ck *Checkpoint, rng *rand.Rand) (*fit, error) {
	for _, name := range names {
		if _, ok := m.Fits[name]; !ok {
			return nil, fmt.Errorf("synth: %s fitting requested but not measured", name)
		}
	}
	f := &fit{
		m:         m,
		cfg:       cfg,
		names:     names,
		isolated:  seed.Isolated(),
		seed:      seed,
		chainSeed: rng.Int63(),
	}
	f.src = mcmc.NewCountingSource(f.chainSeed)
	f.rng = rand.New(f.src)
	if ck == nil {
		if err := f.anchor(nil); err != nil {
			return nil, err
		}
		f.stats.FinalScore = f.runner.Score()
		return f, nil
	}
	if f.chainSeed != ck.Seed {
		return nil, fmt.Errorf("%w: chain seed replay mismatch", ErrCheckpointStale)
	}
	f.src.Skip(ck.RngPos)
	// Swaps keep every endpoint a seed vertex, whose id packs; an edge
	// naming any other id was not written by this fit.
	for _, e := range ck.Edges {
		if seed.Degree(e[0]) == 0 || seed.Degree(e[1]) == 0 {
			return nil, fmt.Errorf("%w: edge %d-%d is not between seed vertices", ErrCheckpointStale, e[0], e[1])
		}
	}
	if err := f.anchor(ck.Edges); err != nil {
		return nil, err
	}
	if got := math.Float64bits(f.runner.Score()); got != ck.ScoreBits {
		return nil, fmt.Errorf("%w: re-anchored score %x does not reproduce checkpointed %x",
			ErrCheckpointStale, got, ck.ScoreBits)
	}
	f.stats = mcmc.Stats{
		Steps:      ck.Step,
		Accepted:   ck.Accepted,
		Rejected:   ck.Rejected,
		Invalid:    ck.Invalid,
		FinalScore: f.runner.Score(),
	}
	return f, nil
}

// anchor (re)builds the chain's plan, graph state and runner: every
// workload attached over its released domain, then the Phase 1 seed graph
// loaded when at is nil, else at's edges in their live order — the
// accumulations downstream are order-sensitive and must come out
// bit-for-bit. It consumes no rng.
func (f *fit) anchor(at [][2]int32) error {
	plan := workload.NewPlan()
	for _, name := range f.names {
		if err := f.m.Fits[name].Attach(plan, f.m.Eps); err != nil {
			return fmt.Errorf("synth: %w", err)
		}
	}
	var edges []graph.Edge
	if at != nil {
		edges = unpackEdges(at)
	} else {
		edges = f.seed.EdgeList()
	}
	state, err := mcmc.NewGraphStateFromEdges(edges, f.isolated, plan.Input())
	if err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	runner, err := mcmc.NewRunner(state, plan.Scorer(), mcmc.Config{Pow: f.cfg.Pow, RecomputeEvery: mcmc.DefaultRecomputeEvery}, f.rng)
	if err != nil {
		return err
	}
	f.runner, f.eng = runner, plan.Engine()
	return nil
}

// operators reads the chain's executor profile and exports it. Called
// with the chain parked: at a stop, or after the run.
func (f *fit) operators() []OperatorProfile {
	prof := f.eng.Profile()
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

// SynthesizeResume continues a checkpointed fit, ck as LoadCheckpoint
// returned it (which vets its step against its cadence). m and seed must be reconstructed with the same master rng
// stream the original run used (load the measurement, then SeedGraph,
// then call this, exactly as Synthesize's callers do): the function
// replays the chain seed draw and verifies it against the checkpoint, so
// a different measurement or master seed fails with ErrCheckpointStale
// instead of silently diverging. The trace-relevant configuration (pow,
// steps, cadence) comes from the checkpoint; cfg supplies only
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
	cfg.Pow = ck.Pow
	cfg.Steps = ck.Steps
	cfg.CheckpointEvery = ck.CheckpointEvery
	if err := cfg.Validate(); err != nil {
		return nil, err
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

// run is the one chain loop. It drives the chain to cfg.Steps — from
// ck's step when the chain was built at a checkpoint — stopping to
// re-anchor and report, and assembles the Result.
func (f *fit) run(ck *Checkpoint) (*Result, error) {
	cfg := f.cfg
	var cadences []int // Validate made each positive
	if cfg.CheckpointEvery > 0 {
		cadences = append(cadences, cfg.CheckpointEvery)
	}
	if cfg.OnProgress != nil {
		cadences = append(cadences, cfg.ProgressEvery)
	}
	done := 0
	if ck != nil {
		done = ck.Step
	}
	cancelled := false
	for done < cfg.Steps && !cancelled {
		next := cfg.Steps
		for _, every := range cadences {
			next = min(next, done-done%every+every)
		}
		began := time.Now()
		chunk := f.runner.Run(next - done)
		fitRound.Observe(time.Since(began).Seconds())
		chunkAcceptRatio.Observe(chunk.AcceptRate())
		chunkScoreDelta.Set(chunk.FinalScore - f.stats.FinalScore)
		f.stats.Steps += chunk.Steps
		f.stats.Accepted += chunk.Accepted
		f.stats.Rejected += chunk.Rejected
		f.stats.Invalid += chunk.Invalid
		f.stats.FinalScore = chunk.FinalScore
		done = next
		if cfg.CheckpointEvery > 0 && done < cfg.Steps && done%cfg.CheckpointEvery == 0 {
			ok, err := f.checkpoint(done)
			if err != nil {
				return nil, err
			}
			cancelled = !ok
		}
		chainScore.Set(f.stats.FinalScore)
		chainAcceptRate.Set(f.stats.AcceptRate())
		if !cancelled && cfg.OnProgress != nil {
			cancelled = !cfg.OnProgress(f.progress(done))
		}
	}
	return &Result{
		Seed:      f.seed,
		Synthetic: f.runner.State().Graph(),
		Stats:     f.stats,
		TotalCost: f.m.TotalCost,
		Residuals: f.runner.Scorer().Residuals(residualTopK),
		Operators: f.operators(),
		Cancelled: cancelled,
	}, nil
}

// checkpoint rebuilds the chain from its live edge list, adopts the
// rebuilt score, and emits the checkpoint describing exactly the rebuilt
// state. It reports false when OnCheckpoint cancels the fit.
func (f *fit) checkpoint(done int) (bool, error) {
	began := time.Now()
	edges := packEdges(f.runner.State().Edges())
	if err := f.anchor(edges); err != nil {
		return false, err
	}
	// The rebuilt pipelines re-accumulate their score from scratch; the
	// stats adopt the re-anchored value a resumed process computes too.
	f.stats.FinalScore = f.runner.Score()
	reanchorSeconds.Observe(time.Since(began).Seconds())
	if f.cfg.OnCheckpoint == nil {
		return true, nil
	}
	return f.cfg.OnCheckpoint(&Checkpoint{
		Version:         checkpointVersion,
		ParentHash:      f.cfg.ParentHash,
		Eps:             f.m.Eps,
		Workloads:       append([]string(nil), f.names...),
		Pow:             f.cfg.Pow,
		Steps:           f.cfg.Steps,
		Step:            done,
		CheckpointEvery: f.cfg.CheckpointEvery,
		Seed:            f.chainSeed,
		RngPos:          f.src.Pos(),
		ScoreBits:       math.Float64bits(f.stats.FinalScore),
		Accepted:        f.stats.Accepted,
		Rejected:        f.stats.Rejected,
		Invalid:         f.stats.Invalid,
		Edges:           edges,
	}), nil
}

// progress assembles the OnProgress view of one stop. The chain is parked
// at a stop, so neither the scorer's residual breakdown nor the graph
// state Progress.Synthetic reads races anything.
func (f *fit) progress(done int) Progress {
	p := Progress{
		Step:      done,
		Steps:     f.cfg.Steps,
		Accepted:  f.stats.Accepted,
		Score:     f.stats.FinalScore,
		Residuals: f.runner.Scorer().Residuals(residualTopK),
		Operators: f.operators(),
		state:     f.runner.State(),
	}
	live := 0
	for _, r := range p.Residuals {
		live += r.Bins - f.m.Fits[r.Workload].Hist.Len()
	}
	liveDerived.Set(float64(live))
	return p
}
