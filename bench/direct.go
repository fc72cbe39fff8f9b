package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

// outcome is one run's result: the driver's four keys plus the reasons
// behind any failure.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Problems  []string          `json:"problems,omitempty"`
}

// rounds holds the per-round samples every workload reports the same
// way; a round is one protected graph in -> synthetic graph out.
type rounds struct {
	measure, fit, total sample // seconds
}

func (r *rounds) add(measure, fit time.Duration) {
	r.measure = append(r.measure, measure.Seconds())
	r.fit = append(r.fit, fit.Seconds())
	r.total = append(r.total, (measure + fit).Seconds())
}

// report reads the three times at the fast end of the rounds. The tail
// of the round times is printed beside time_to_result_s and is not a
// metric of its own: on a shared host an upper percentile of a run's
// rounds measures the neighbours (README.md, "Steadiness").
func (r *rounds) report(out *outcome) {
	out.Metrics["measure_s"] = fastMetric("s", r.measure, false)
	out.Metrics["fit_s"] = fastMetric("s", r.fit, false)
	total := fastMetric("s", r.total, false)
	tail, which := r.total.tail()
	total.Note += fmt.Sprintf(", %s %.6g", which, tail)
	out.Metrics["time_to_result_s"] = total
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.problem(format, args...)
}

// problem records a broken check that is not one counted operation.
func (o *outcome) problem(format string, args ...any) {
	o.Correct = false
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// fitInputs is everything one fit consumes, generated from the seed.
type fitInputs struct {
	g                  *graph.Graph // the protected graph
	m                  *synth.Measurements
	seedG              *graph.Graph
	gen, measure, seed time.Duration
}

// Purposes for subSeed: one independent stream per use of the run seed.
const (
	seedGraphGen uint64 = iota + 1
	seedMeasure
	seedFit
	seedTracedWalk
	seedProbe
	seedSession
)

func generate(s spec, seed int64, round int) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, round, seedGraphGen)))
	return graph.HolmeKim(s.nodes, s.perNode, 0.5, rng)
}

// prepare generates round's protected graph, measures it and builds
// the seed graph, timing each call (and recording a span when traced).
func prepare(s spec, seed int64, round int, tr *tracer) (fitInputs, error) {
	var in fitInputs
	var err error
	trace := fmt.Sprintf("round/%d", round)

	t0 := time.Now()
	in.g, err = generate(s, seed, round)
	in.gen = tr.record(trace, 0, "graph", "graph.generate", t0, time.Now())
	if err != nil {
		return in, fmt.Errorf("generate: %w", err)
	}
	rng := rand.New(rand.NewSource(subSeed(seed, round, seedMeasure)))
	t0 = time.Now()
	in.m, err = synth.Measure(in.g, s.config(), rng)
	in.measure = tr.record(trace, 0, "core", "core.measure", t0, time.Now())
	if err != nil {
		return in, fmt.Errorf("measure: %w", err)
	}
	t0 = time.Now()
	in.seedG, err = synth.SeedGraph(in.m, rng)
	in.seed = tr.record(trace, 0, "synth", "synth.seed", t0, time.Now())
	if err != nil {
		return in, fmt.Errorf("seed graph: %w", err)
	}
	return in, nil
}

// runDirect is the untraced run of a workload that calls synth
// directly: rounds of generate -> Measure -> SeedGraph -> Synthesize on
// a fresh graph each, until the timed part of the rounds fills window
// (and at least minRounds ran). Times and rates are read at the fast end
// of the rounds (fastShare), peak RSS at their median.
func runDirect(s spec, seed int64, window time.Duration, minRounds int) outcome {
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	var setup, rate, rss sample
	var done rounds
	var timed time.Duration
	const maxRounds = 64 // stops a run whose every round fails at once
	for i := 0; i < maxRounds && (i < minRounds || timed < window); i++ {
		out.Attempted++
		// Every round starts like a fresh process: garbage collected and
		// returned to the OS, peak RSS restarted. One round's garbage is
		// not collected on the next round's clock, and peak RSS is a
		// per-round sample instead of one process-wide maximum.
		debug.FreeOSMemory()
		resetPeakRSS()
		in, err := prepare(s, seed, i, nil)
		if err != nil {
			out.fail("round %d: %v", i, err)
			continue
		}
		cfg := s.config()
		t0 := time.Now()
		res, err := synth.Synthesize(in.m, in.seedG, cfg, rand.New(rand.NewSource(subSeed(seed, i, seedFit))))
		walk := time.Since(t0)
		if err != nil {
			out.fail("round %d: synthesize: %v", i, err)
			continue
		}
		if s.fitTimed {
			timed += walk
			setup = append(setup, (in.gen + in.measure + in.seed).Seconds())
		} else {
			timed += in.measure + in.seed + walk
			setup = append(setup, in.gen.Seconds())
		}
		rate = append(rate, float64(cfg.Steps)/walk.Seconds())
		done.add(in.measure, in.seed+walk)
		if mb, err := peakRSSMB(); err != nil {
			out.problem("peak RSS: %v", err)
		} else {
			rss = append(rss, mb)
		}
		if problems := checkFit(s, in, cfg, res, i == 0); len(problems) > 0 {
			out.fail("round %d: %v", i, problems)
		}
	}
	out.Metrics["setup_s"] = fastMetric("s", setup, false)
	out.Metrics["steps_per_s"] = fastMetric("1/s", rate, true)
	out.Metrics["peak_rss_mb"] = medianMetric("MB", rss)
	done.report(&out)
	return out
}

// checkFit verifies one fit's outputs; it returns what is wrong. The
// noise-scale check recomputes every exact answer, which takes 2 s on
// bulk-load's graph (more than half a round), so it runs where first is
// set: once per run.
func checkFit(s spec, in fitInputs, cfg synth.Config, res *synth.Result, first bool) []string {
	var bad []string
	if !sameDegrees(in.seedG, res.Synthetic) {
		bad = append(bad, "degree sequence of the result differs from the seed graph's")
	}
	st := res.Stats
	if st.Steps != cfg.Steps || st.Steps != st.Accepted+st.Rejected+st.Invalid {
		bad = append(bad, fmt.Sprintf("stats do not add up: %+v for %d steps", st, cfg.Steps))
	}
	// The paper's incremental-equals-from-scratch property: the score
	// the dataflow maintained through the walk (the sum of the result's
	// per-workload residuals) equals the score of the final graph loaded
	// into a fresh plan. Stats.FinalScore is not used: the runner's
	// cached score lags the dataflow's after an aborted proposal drew
	// new observations (README.md, "Findings").
	var maintained float64
	for _, r := range res.Residuals {
		maintained += r.Weighted
	}
	scratch, err := scratchScore(in.m, res.Synthetic, cfg.Shards)
	switch {
	case err != nil:
		bad = append(bad, "from-scratch score: "+err.Error())
	case !closeRel(scratch, maintained, 1e-6):
		bad = append(bad, fmt.Sprintf("maintained score %v != from-scratch score %v", maintained, scratch))
	}
	// The ledger sums per-query charges in floating point; 1e-9 is the
	// tolerance the service's own audit allows.
	if math.Abs(in.m.TotalCost-cfg.MeasureCost()) > 1e-9 {
		bad = append(bad, fmt.Sprintf("privacy cost %v != declared %v", in.m.TotalCost, cfg.MeasureCost()))
	}
	if s.noiseCheck && first {
		if msg := checkNoise(in); msg != "" {
			bad = append(bad, msg)
		}
	}
	return bad
}

func sameDegrees(a, b *graph.Graph) bool {
	da, db := a.Degrees(), b.Degrees()
	if len(da) != len(db) {
		return false
	}
	for v, d := range da {
		if db[v] != d {
			return false
		}
	}
	return true
}

func closeRel(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*math.Max(scale, 1e-300)
}

// attachAll builds the fused fit plan for every measured workload on
// the executor selected by shards, in the order synth.Synthesize uses.
func attachAll(m *synth.Measurements, shards int) (*workload.Plan, error) {
	p := workload.NewPlanFused(shards, true)
	for _, name := range m.FitNames() {
		if err := m.Fits[name].Attach(p, m.Eps); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func scratchScore(m *synth.Measurements, g *graph.Graph, shards int) (float64, error) {
	p, err := attachAll(m, shards)
	if err != nil {
		return 0, err
	}
	mcmc.NewGraphState(g, p.Input())
	return p.Scorer().Score(), nil
}

// checkNoise compares every released count on the exact support with
// the exact query answer: Laplace(1/eps) noise has mean absolute value
// 1/eps, and over thousands of records the sample mean sits well within
// 20% of it.
func checkNoise(in fitInputs) string {
	var sum float64
	var n int
	for _, name := range in.m.FitNames() {
		fit := in.m.Fits[name]
		exact, err := fit.Workload.Exact(in.g, fit.Bucket)
		if err != nil {
			return fmt.Sprintf("exact %s: %v", name, err)
		}
		keys := make([]string, 0, len(exact))
		for k := range exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			released, err := fit.Hist.Get(json.RawMessage(k))
			if err != nil {
				return fmt.Sprintf("released %s[%s]: %v", name, k, err)
			}
			sum += math.Abs(released - exact[k])
			n++
		}
	}
	mean, want := sum/float64(n), 1/in.m.Eps
	if math.Abs(mean-want) > 0.2*want {
		return fmt.Sprintf("mean |released-exact| = %.3f over %d records, want %.1f +-20%%", mean, n, want)
	}
	return ""
}
