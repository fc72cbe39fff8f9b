package main

import (
	"fmt"

	"wpinq/internal/synth"
)

// spec is one named workload: the generated input and the calls made
// on it. Sizes are fixed (not options) so every run of a workload name
// measures the same thing; -quick swaps in the small sizes that the
// package test uses.
type spec struct {
	name string
	why  string
	// Input: graph.HolmeKim(nodes, perNode, 0.5).
	nodes, perNode int
	// Fit configuration (eps is 0.1 everywhere).
	workloads []string
	bucket    int
	pow       float64
	steps     int
	// traceSteps is the length of each per-executor walk of a traced run.
	traceSteps int
	// fitTimed marks the walk workloads: Measure and SeedGraph count as
	// set-up and only synth.Synthesize fills the timed window. Without
	// it (bulk-load) the whole Measure -> SeedGraph -> Synthesize pass
	// is timed and set-up is graph generation alone.
	fitTimed bool
	// procs, when set, is the GOMAXPROCS of the untraced run. A walk is
	// one goroutine (its rounds fall below the engine's parallel cutoff),
	// and with a second P the runtime's GC workers and wake-ups land on the
	// shared host's other hardware thread: the same fit then runs 15 %
	// slower and three times less steadily (README.md, "Steadiness"). The
	// walks therefore run Shards 0 on one P; bulk-load and serve-durable,
	// which use both, keep the machine's default.
	procs int
	// noiseCheck adds the released-vs-exact Laplace scale check.
	noiseCheck bool
	// serve marks the HTTP workload: analysts drive sessions through an
	// in-process service instead of calling synth directly.
	serve           bool
	checkpointEvery int
}

const eps = 0.1

// analysts is the closed-loop client count of serve-durable: each sends
// its next request only when the previous one completed.
const analysts = 2

func (s spec) config() synth.Config {
	return synth.Config{
		Eps:       eps,
		Workloads: append([]string(nil), s.workloads...),
		Bucket:    s.bucket,
		Pow:       s.pow,
		Steps:     s.steps,
	}
}

// specs returns the four workloads. quick keeps every code path and
// shrinks steps (and bulk-load's graph) to test size.
func specs(quick bool) []spec {
	all := []spec{
		{
			name:  "walk-hot",
			why:   "accept ~0.88 on four fused join-heavy workloads: propagation through the shared DAG and commit dominate",
			nodes: 400, perNode: 3,
			workloads: []string{"tbi", "tbd", "jdd", "wedges"}, bucket: 5, pow: 0.1,
			steps: 1000, traceSteps: 1000, fitTimed: true, procs: 1,
		},
		{
			name:  "walk-cold",
			why:   "accept ~0.001 on one workload: abort/undo, propose and score-read dominate, nothing to fuse",
			nodes: 2000, perNode: 5,
			workloads: []string{"jdd"}, pow: 1e4,
			steps: 40000, traceSteps: 10000, fitTimed: true, procs: 1,
		},
		{
			name:  "bulk-load",
			why:   "from-scratch pass on the largest graph: one-shot core queries, seed-graph regression and executor bulk push dominate, the walk is the minority",
			nodes: 4000, perNode: 5,
			workloads: []string{"jdd", "wedges"}, pow: 1e4,
			steps: 2000, traceSteps: 2000, noiseCheck: true,
		},
		{
			name:  "serve-durable",
			why:   "two closed-loop analysts over HTTP: JSON, ledger, store, job queue and checkpoint fsync + re-anchor carry the number, the walk is small",
			nodes: 300, perNode: 4,
			workloads: []string{"jdd", "wedges"}, pow: 1e4,
			steps: 1000, traceSteps: 4000, serve: true, checkpointEvery: 250,
		},
	}
	if quick {
		for i := range all {
			all[i].steps /= 20
			all[i].traceSteps /= 10
			all[i].checkpointEvery /= 20
		}
		all[2].nodes = 600
	}
	return all
}

func specByName(name string, quick bool) (spec, error) {
	for _, s := range specs(quick) {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef declares one metric: BENCHMARK.json repeats this table and
// the package test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver contract), so each has one definition
// that holds on all four; see README.md for the per-workload reading.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"measure_s", "s", "lower", 0.25},
	{"fit_s", "s", "lower", 0.25},
	{"time_to_result_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// executors are the three ways a fit plan can run, by synth.Config.Shards.
var executors = []struct {
	name   string
	shards int
}{
	{"incremental", -1},
	{"engine.s1", 1},
	{"engine.sN", 0},
}

// defaultExecutor is the product default (Shards 0): mcmc.* and
// workload.* numbers are taken on it.
const defaultExecutor = "engine.sN"

// perLayer lists the single-layer metrics of a traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	out := []metricDef{
		{name: "graph.generate_s", unit: "s", better: "lower"},
		{name: "graph.write_ms", unit: "ms", better: "lower"},
		{name: "graph.parse_ms", unit: "ms", better: "lower"},
		{name: "core.measure_s", unit: "s", better: "lower"},
		{name: "core.measure_fits_s", unit: "s", better: "lower"},
		{name: "core.released_records", unit: "count", better: "lower"},
		{name: "workload.attach_ms", unit: "ms", better: "lower"},
		{name: "workload.plan_fragments", unit: "count", better: "lower"},
		{name: "workload.plan_shared", unit: "count", better: "higher"},
		{name: "workload.pushes_per_step", unit: "count", better: "lower"},
	}
	for _, ex := range executors {
		for _, m := range []metricDef{
			{name: "load_s", unit: "s", better: "lower"},
			{name: "state_mb", unit: "MB", better: "lower"},
			{name: "speculate_us", unit: "us", better: "lower"},
			{name: "commit_us", unit: "us", better: "lower"},
			{name: "abort_us", unit: "us", better: "lower"},
			{name: "score_us", unit: "us", better: "lower"},
			{name: "recompute_ms", unit: "ms", better: "lower"},
			{name: "step_us", unit: "us", better: "lower"},
			{name: "steps_per_s", unit: "1/s", better: "higher"},
		} {
			m.name = ex.name + "." + m.name
			out = append(out, m)
		}
	}
	return append(out,
		metricDef{name: "mcmc.propose_us", unit: "us", better: "lower"},
		metricDef{name: "mcmc.loop_us", unit: "us", better: "lower"},
		metricDef{name: "mcmc.accept_rate", unit: "ratio", better: "higher"},
		metricDef{name: "mcmc.invalid_rate", unit: "ratio", better: "lower"},
		metricDef{name: "mcmc.allocs_per_step", unit: "count", better: "lower"},
		metricDef{name: "mcmc.bytes_per_step", unit: "B", better: "lower"},
		metricDef{name: "mcmc.trace_overhead_pct", unit: "%", better: "lower"},
		metricDef{name: "synth.seed_s", unit: "s", better: "lower"},
		metricDef{name: "synth.save_ms", unit: "ms", better: "lower"},
		metricDef{name: "synth.save_bytes", unit: "B", better: "lower"},
		metricDef{name: "synth.loadmeas_ms", unit: "ms", better: "lower"},
		metricDef{name: "synth.ckpt_save_ms", unit: "ms", better: "lower"},
		metricDef{name: "synth.ckpt_bytes", unit: "B", better: "lower"},
		metricDef{name: "synth.ckpt_load_ms", unit: "ms", better: "lower"},
		metricDef{name: "synth.reanchor_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.upload_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.measure_http_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.measure_direct_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.store_put_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.submit_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.queue_wait_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.poll_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.polls_per_job", unit: "count", better: "lower"},
		metricDef{name: "service.result_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.ckpt_put_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.checkpoints_per_job", unit: "count", better: "lower"},
		metricDef{name: "service.audit_ms", unit: "ms", better: "lower"},
		metricDef{name: "service.refused_402", unit: "count", better: "higher"},
		metricDef{name: "service.http_errors", unit: "count", better: "lower"},
	)
}
