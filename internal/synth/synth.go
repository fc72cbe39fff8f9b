// Package synth implements the end-to-end graph synthesis workflow of
// paper Section 5.1:
//
//	Phase 0: take differentially-private wPINQ measurements of the
//	         protected graph (degree sequence, degree CCDF, node count,
//	         plus any set of registered fit workloads — TbI, TbD, JDD,
//	         wedges, motif profiles), then discard the protected graph.
//	Phase 1: regress a DP degree sequence from the noisy measurements
//	         (lowest-cost grid path) and seed a random graph matching it.
//	Phase 2: fit the seed to the released fit measurements with
//	         Metropolis-Hastings over degree-preserving edge swaps.
//
// Fit workloads are resolved by name against the workload registry
// (wpinq/internal/workload): each workload carries its own privacy use
// count, measurement query, and fit pipeline, so
// adding a new fittable analysis is one registration, not a change to
// this package.
//
// Everything after Phase 0 consumes only released measurements: the
// synthetic graphs are public.
package synth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/laplace"
	"wpinq/internal/mcmc"
	"wpinq/internal/postprocess"
	"wpinq/internal/queries"
	"wpinq/internal/workload"
)

// Config parameterizes the workflow. The defaults mirror the paper's
// experiments at reduced scale.
type Config struct {
	// Eps is the per-measurement privacy parameter (paper: 0.1).
	Eps float64
	// Workloads names the fit workloads, resolved against the workload
	// registry (workload.Names lists them; e.g. "tbi" 4 eps, "tbd"
	// 9 eps, "jdd" 4 eps, "wedges" 2 eps). Measure requires at least
	// one; Synthesize treats an empty list as "fit every workload
	// present in the measurements".
	Workloads []string
	// Bucket groups degrees into floor(d/bucket) buckets for bucketed
	// workloads such as "tbd" (paper Figure 3 uses 20; <= 1 disables
	// bucketing). Workloads that do not bucket ignore it.
	Bucket int
	// Pow sharpens the MCMC posterior (paper: 10000).
	Pow float64
	// Steps is the number of MCMC steps in Phase 2. Each step scores its
	// proposal transactionally: one propagation, with a rejected swap
	// unwound from operator undo logs rather than re-propagated
	// (DESIGN.md "Transactional scoring").
	Steps int
	// OnProgress, when set, observes Phase 2 progress at every stop of
	// the fit — each multiple of ProgressEvery and of CheckpointEvery —
	// and once after the final step. Returning false cancels the run: the
	// chain stops at the stop it has reached and Synthesize returns the
	// partial synthetic graph with Result.Cancelled set. Long-running fits become observable and
	// stoppable (e.g. by an async job manager) without touching the MCMC
	// trace: stopping a run does not change the sequence of proposals.
	OnProgress func(Progress) bool
	// ProgressEvery is the OnProgress callback cadence in steps
	// (default 1024; only consulted when OnProgress is set).
	ProgressEvery int
	// Shards is retired: nothing reads it, and Validate neither checks
	// nor rewrites it. A fit runs on one engine, which no shard count
	// splits. The field goes when the end-to-end benchmark, its last
	// writer, stops setting it.
	Shards int
	// CheckpointEvery > 0 makes Phase 2 durable: every that many steps
	// the fit re-anchors (rebuilds its pipelines from the live edge
	// list; see DESIGN.md "Durable jobs") and emits a Checkpoint to
	// OnCheckpoint, from which SynthesizeResume can continue the run
	// bit-identically in a fresh process. Re-anchoring re-accumulates
	// float state at each boundary, so the proposal trace differs from a
	// CheckpointEvery=0 run of the same seed; it does not depend on
	// whether OnCheckpoint is set.
	CheckpointEvery int
	// OnCheckpoint receives each checkpoint of a durable run, with the
	// chain parked. Returning false cancels the run at this boundary
	// (the checkpoint is still valid to resume from).
	OnCheckpoint func(*Checkpoint) bool
	// ParentHash, when set, is stored in every emitted checkpoint and
	// verified by SynthesizeResume: the content hash of the serialized
	// measurement this fit runs against, so a checkpoint cannot be
	// resumed against a different measurement.
	ParentHash string
}

// The fit defaults: what Validate fills in for a zero Pow or
// ProgressEvery. Every caller that spells a default — the CLI's flags, the
// job manager, the experiments — reads it from here.
const (
	DefaultPow           = 10000
	DefaultProgressEvery = 1024
)

// Validate fills defaults and rejects inconsistent configurations.
func (c *Config) Validate() error {
	if !(c.Eps > 0) || math.IsInf(c.Eps, 1) {
		return errors.New("synth: Eps must be positive and finite")
	}
	if math.IsNaN(c.Pow) || math.IsInf(c.Pow, 0) {
		return errors.New("synth: Pow must be finite")
	}
	if _, err := workload.Resolve(c.Workloads); err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	if c.Pow < 0 {
		return errors.New("synth: Pow must be non-negative")
	}
	if c.Pow == 0 {
		c.Pow = DefaultPow
	}
	if c.Steps < 0 {
		return errors.New("synth: Steps must be non-negative")
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = DefaultProgressEvery
	}
	if c.CheckpointEvery < 0 {
		return errors.New("synth: CheckpointEvery must be non-negative")
	}
	return nil
}

// Progress is a snapshot of a running Phase 2 fit, delivered to
// Config.OnProgress.
type Progress struct {
	Step     int     // MCMC steps completed so far
	Steps    int     // total steps configured
	Accepted int     // proposals accepted so far
	Score    float64 // current fit score (lower is better)
	// Residuals breaks the score down by workload, each with its top-K
	// worst measurement bins: the operator-level provenance of the score.
	Residuals []WorkloadResidual
	// Operators is the chain's executor profile, one entry per dataflow
	// node in scheduling order: which operator is hot. Counters run from
	// the chain's last (re-)anchor.
	Operators []OperatorProfile

	state *mcmc.GraphState // the chain's, parked for the callback
}

// Synthetic builds the synthetic graph as of this stop. Call it only
// inside the OnProgress callback, while the chain is parked; the graph is
// a snapshot that later proposals do not change.
func (p Progress) Synthetic() *graph.Graph { return p.state.Graph() }

// WorkloadResidual is one workload's share of the fit score with its
// worst bins; see incremental.WorkloadResidual for the field contract.
type WorkloadResidual = incremental.WorkloadResidual

// OperatorProfile is one dataflow node's rounds, differences in and out,
// and indexed records; see engine.NodeProfile.
type OperatorProfile = engine.NodeProfile

// BinResidual is one measurement record's residual; see
// incremental.BinResidual.
type BinResidual = incremental.BinResidual

// residualTopK is how many worst bins each workload's residual report
// carries in progress snapshots and results.
const residualTopK = 5

// AcceptRate returns the fraction of completed steps that were accepted.
func (p Progress) AcceptRate() float64 {
	if p.Step == 0 {
		return 0
	}
	return float64(p.Accepted) / float64(p.Step)
}

// MeasureCost returns the total privacy cost, in epsilon, that Measure
// will charge for this configuration: SeedCost for the Phase 1
// measurements plus each configured workload's registered use count
// (Section 5: tbi 4 eps, tbd 9 eps, jdd 4 eps). Call Validate first;
// unresolvable names contribute nothing.
func (c Config) MeasureCost() float64 {
	needed := float64(SeedCost)
	for _, name := range c.Workloads {
		if w, err := workload.Get(name); err == nil {
			needed += float64(w.Uses)
		}
	}
	return needed * c.Eps
}

// SeedCost is the privacy cost of the Phase 1 measurements in units of
// eps: degree sequence + degree CCDF + node count (paper: "3 eps = 0.3").
const SeedCost = 3

// Measurements holds every released histogram plus bookkeeping. After
// Measure returns, the protected graph is no longer needed.
type Measurements struct {
	Eps       float64
	DegSeq    *core.Histogram[int]
	CCDF      *core.Histogram[int]
	NodeCount *core.Histogram[queries.Unit]
	// Fits maps workload name to its released histogram (type-erased;
	// the workload knows its record type) plus the bucket width it was
	// measured with.
	Fits map[string]workload.Measured
	// TotalCost is the total privacy cost actually charged, in epsilon.
	TotalCost float64
}

// FitNames returns the names of the measured fit workloads, sorted.
func (m *Measurements) FitNames() []string {
	out := make([]string, 0, len(m.Fits))
	for name := range m.Fits {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Measure takes every configured measurement of the protected graph g,
// charging an internally created budget source sized exactly to the
// query plan (a smaller budget would make the final aggregation fail).
// Fit workloads are measured in sorted name order, so identically-seeded
// runs release byte-identical measurements. The queries' exact answers
// are computed first, on GOMAXPROCS workers (core.Evaluate); the charges
// and noise draws then follow one after another in that order, so the
// release does not depend on the worker count.
func Measure(g *graph.Graph, cfg Config, rng *rand.Rand) (*Measurements, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws, err := workload.Resolve(cfg.Workloads)
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	if len(ws) == 0 {
		return nil, errors.New("synth: at least one fit workload is required (see `wpinq workloads`)")
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	// The one-shot queries pack node ids into 21 bits: refuse a graph
	// with more vertices than that here, before anything is charged, and
	// rank its ids onto [0, n).
	if err := queries.CheckNodeRange(g.NumNodes()); err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	g = g.Ranked()
	src := budget.NewSource("edges", cfg.MeasureCost()*(1+1e-9))
	edges := core.FromDataset(graph.SymmetricEdges(g), src)

	// Lower every query of the release, evaluate their exact answers
	// concurrently, then release them in order: the charges, salts and
	// noise draws are a sequential pass's (DESIGN.md, "Releases evaluate
	// concurrently").
	degSeq := queries.OneShot(queries.DegreeSequence(), edges)
	ccdf := queries.OneShot(queries.DegreeCCDF(), edges)
	nodes := queries.OneShot(queries.NodeCount(), edges)
	all := []core.Evaluable{degSeq, ccdf, nodes}
	fits := make([]workload.Lowered, len(ws))
	for i, w := range ws {
		if fits[i], err = w.Lower(edges, cfg.Bucket); err != nil {
			return nil, fmt.Errorf("synth: %w", err)
		}
		all = append(all, fits[i])
	}
	core.Evaluate(all...)

	m := &Measurements{Eps: cfg.Eps, Fits: make(map[string]workload.Measured, len(ws))}
	if m.DegSeq, err = core.NoisyCount(degSeq, cfg.Eps, rng); err != nil {
		return nil, fmt.Errorf("synth: degree sequence: %w", err)
	}
	if m.CCDF, err = core.NoisyCount(ccdf, cfg.Eps, rng); err != nil {
		return nil, fmt.Errorf("synth: degree ccdf: %w", err)
	}
	if m.NodeCount, err = core.NoisyCount(nodes, cfg.Eps, rng); err != nil {
		return nil, fmt.Errorf("synth: node count: %w", err)
	}
	for i, l := range fits {
		fit, err := l.Release(cfg.Eps, rng)
		if err != nil {
			return nil, fmt.Errorf("synth: %w", err)
		}
		m.Fits[ws[i].Name] = fit
	}
	m.TotalCost = src.Spent()
	return m, nil
}

// EstimatedNodes returns the node-count estimate from the released
// measurement: the Unit record carries |V|/2 plus noise.
func (m *Measurements) EstimatedNodes() int {
	n := int(math.Round(2 * m.NodeCount.Get(queries.Unit{})))
	if n < 2 {
		n = 2
	}
	return n
}

// SeedGraph implements Phase 1: fit a degree sequence to the noisy degree
// sequence and CCDF via the lowest-cost grid path, round it to a graphical
// sequence, and generate a random graph realizing it.
//
// The grid's width (number of vertex ranks considered) comes from the
// released node count: the degree sequence genuinely extends that far even
// where its values sit below the noise floor, and truncating it where the
// *signal* fades would discard every low-degree vertex and collapse the
// seed into a dense hub core. Only the height (maximum degree bound) is
// scanned from the CCDF, whose own end is where *it* fades into noise.
func SeedGraph(m *Measurements, rng *rand.Rand) (*graph.Graph, error) {
	nEst := m.EstimatedNodes()
	// The seed's vertices are 0, …, nEst−1, and the fit packs them.
	if err := queries.CheckNodeRange(nEst); err != nil {
		return nil, fmt.Errorf("synth: seed graph: %w", err)
	}
	width := nEst
	height := scanExtent(func(i int) float64 { return m.CCDF.Get(i) }, m.Eps, nEst)
	// Generous slack: clipping the height truncates hubs, while an extra
	// grid row only costs the regression one more cell per column.
	height += height/2 + 8
	if height > nEst {
		height = nEst
	}
	v := make([]float64, width)
	for x := range v {
		v[x] = m.DegSeq.Get(x)
	}
	h := make([]float64, height)
	for y := range h {
		h[y] = m.CCDF.Get(y)
	}
	fitted, err := postprocess.GridPath(v, h, width, height)
	if err != nil {
		return nil, fmt.Errorf("synth: regression: %w", err)
	}
	asFloat := make([]float64, len(fitted))
	for i, d := range fitted {
		asFloat[i] = float64(d)
	}
	return seedFromDegrees(postprocess.RoundToGraphical(asFloat), nEst, rng)
}

// seedFromDegrees is SeedGraph's last step: a random graph with the given
// degrees, padded with isolated vertices up to n so that the seed's order
// matches the (noisy) node-count measurement. Its error keeps
// graph.ErrNotGraphical in its chain.
func seedFromDegrees(degs []int, n int, rng *rand.Rand) (*graph.Graph, error) {
	// Havel-Hakimi produces a maximally assortative, clustered realization;
	// 20 swap attempts per edge mixes it to a uniform-ish random graph with
	// the same degrees, which is what "random seed graph" means in Section
	// 5.1 (too little mixing leaves phantom triangles in the seed).
	g, err := graph.FromDegreeSequence(degs, 20, rng)
	if err != nil {
		return nil, fmt.Errorf("synth: seed construction: %w", err)
	}
	for v := g.NumNodes(); v < n; v++ {
		g.AddNode(graph.Node(v))
	}
	return g, nil
}

// scanExtent walks a noisy non-increasing measurement from index 0 and
// returns a conservative bound on where the true sequence ends: the point
// where a trailing window's mean falls below twice the noise scale, plus
// slack. The analyst performs exactly this judgement in the paper ("it is
// up to the analyst to draw conclusions about where the sequence truly
// ends").
func scanExtent(get func(int) float64, eps float64, limit int) int {
	noise, err := laplace.FromEpsilon(eps)
	if err != nil {
		return limit
	}
	const window = 16
	threshold := 2 * noise.Scale()
	var sum float64
	buf := make([]float64, 0, window)
	for i := 0; i < limit; i++ {
		v := get(i)
		buf = append(buf, v)
		sum += v
		if len(buf) > window {
			sum -= buf[len(buf)-window-1]
		}
		if i >= window && sum/window < threshold {
			// Sequence has faded into noise: add slack and stop.
			ext := i + window
			if ext > limit {
				ext = limit
			}
			return ext
		}
	}
	return limit
}

// Result is the output of the full workflow.
type Result struct {
	Seed      *graph.Graph // Phase 1 seed (before MCMC)
	Synthetic *graph.Graph // Phase 2 output
	Stats     mcmc.Stats   // the walk's statistics
	TotalCost float64      // privacy cost in epsilon
	// Residuals is the final per-workload score breakdown of the
	// returned synthetic graph.
	Residuals []WorkloadResidual
	// Operators is the chain's executor profile (see Progress).
	Operators []OperatorProfile
	// Cancelled reports that OnProgress stopped the fit early; Synthetic
	// holds the partial result at the point of cancellation.
	Cancelled bool
}

// Synthesize implements Phase 2: build a fit plan, attach each requested
// workload's pipeline and scoring sink (cfg.Workloads; empty fits
// everything measured), load the seed graph, and run the one chain
// (fit.go). Each workload fits at the bucket width its measurement was
// released with — a pipeline bucketed differently would miss the
// measured domain and fit fresh noise. The seed graph is not modified;
// the synthetic result is independent.
//
// The chain scores against m's own histograms and writes nothing into
// them: the residuals a fit reports reconcile with m, m serializes to the
// same bytes afterwards, and two fits against one m agree bit for bit.
func Synthesize(m *Measurements, seed *graph.Graph, cfg Config, rng *rand.Rand) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	names := cfg.Workloads
	if len(names) == 0 {
		names = m.FitNames()
	} else {
		names = append([]string(nil), names...)
		sort.Strings(names)
	}
	if len(names) == 0 {
		return nil, errors.New("synth: measurements contain no fit workloads")
	}
	f, err := newFit(m, seed, cfg, names, nil, rng)
	if err != nil {
		return nil, err
	}
	return f.run(nil)
}

// Run executes the complete workflow: Measure -> SeedGraph -> Synthesize.
func Run(g *graph.Graph, cfg Config, rng *rand.Rand) (*Result, error) {
	m, err := Measure(g, cfg, rng)
	if err != nil {
		return nil, err
	}
	seed, err := SeedGraph(m, rng)
	if err != nil {
		return nil, err
	}
	return Synthesize(m, seed.Clone(), cfg, rng)
}
