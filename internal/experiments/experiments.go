// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 plus Tables 1 and 3 and Figure 1). Each function
// writes its table or data series to Options.Out; cmd/wpinq exposes them as
// subcommands and bench_test.go wraps them as benchmarks.
//
// Defaults are scaled down from the paper's testbed (64 GB, 5e6 steps) to
// run on one machine in minutes; Options restores any scale. Absolute
// numbers therefore differ from the paper, but the shapes — who wins, by
// what factor, where the trends point — are the reproduction target (see
// README.md, "Reproducing the paper").
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"wpinq/internal/datasets"
	"wpinq/internal/graph"
	"wpinq/internal/laplace"
	"wpinq/internal/mcmc"
	"wpinq/internal/queries"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

// Options parameterizes every experiment.
type Options struct {
	Out io.Writer
	// Scale multiplies dataset sizes (1.0 = paper scale).
	Scale float64
	// EpinionsScale multiplies only the Epinions stand-in (it is 6-15x
	// larger than the other graphs).
	EpinionsScale float64
	// Steps is the MCMC step budget per run.
	Steps int
	// Eps is the per-measurement privacy parameter.
	Eps float64
	// Pow is the MCMC posterior sharpening.
	Pow float64
	// Seed drives all randomness.
	Seed int64
	// Samples is the number of trajectory points per figure line.
	Samples int
	// Repeats is the number of repetitions for error bars (Figure 5).
	Repeats int
	// Chains runs every synthesis fit as this many replica-exchange
	// chains at a geometric pow ladder (see synth.Config.Chains; 0 or 1
	// = the single-chain walk the paper uses). Trajectory samples follow
	// the best chain at each stop, as Result.Synthetic does at the end.
	Chains int
}

// Defaults returns the scaled-down defaults used by the CLI and benches.
func Defaults(out io.Writer) Options {
	return Options{
		Out:           out,
		Scale:         0.12,
		EpinionsScale: 0.03,
		Steps:         20000,
		Eps:           0.1,
		Pow:           10000,
		Seed:          1,
		Samples:       20,
		Repeats:       5,
	}
}

func (o *Options) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(o.Seed + offset))
}

func (o *Options) sampleEvery() int {
	if o.Samples <= 0 {
		return o.Steps
	}
	every := o.Steps / o.Samples
	if every < 1 {
		every = 1
	}
	return every
}

// Table1 regenerates paper Table 1: statistics of each evaluation graph
// and its degree-preserving randomization, alongside the paper's values.
func Table1(o Options) error {
	fmt.Fprintln(o.Out, "Table 1: graph statistics (stand-ins at scale", o.Scale, "vs paper values)")
	tb := newTable("Graph", "Nodes", "Edges", "dmax", "Triangles", "r",
		"paperNodes", "paperEdges", "paperDmax", "paperTri", "paperR")
	for _, name := range datasets.All() {
		scale := o.Scale
		if name == datasets.Epinions {
			scale = o.EpinionsScale
		}
		g, err := datasets.Generate(name, scale, o.rng(int64(len(name))))
		if err != nil {
			return fmt.Errorf("table1: %s: %w", name, err)
		}
		s := graph.ComputeStats(g)
		p, _ := datasets.PaperStats(name)
		tb.AddRow(string(name), s.Nodes, s.DirectedEdges, s.MaxDegree, s.Triangles,
			s.Assortativity, p.Nodes, p.DirectedEdges, p.MaxDegree, p.Triangles, p.Assortativity)

		r := datasets.Randomized(g, o.rng(1000+int64(len(name))))
		rs := graph.ComputeStats(r)
		pr, _ := datasets.PaperRandomTriangles(name)
		tb.AddRow("Random("+string(name)+")", rs.Nodes, rs.DirectedEdges, rs.MaxDegree,
			rs.Triangles, rs.Assortativity, p.Nodes, p.DirectedEdges, "-", pr, 0.0)
	}
	return tb.Render(o.Out)
}

// Fig1 regenerates the Figure 1 motivation: on the worst-case graph
// (a near-complete bipartite "book" where one edge creates |V|-2
// triangles) and the best-case graph (bounded degree), compare the noise
// a worst-case-sensitivity mechanism must add against the weight wPINQ's
// TbI query retains.
func Fig1(o Options) error {
	worst, best := fig1Graphs(int(math.Max(16, 512*o.Scale*4)))
	fmt.Fprintln(o.Out, "Figure 1: worst-case vs best-case triangle counting")
	tb := newTable("Graph", "Nodes", "Triangles",
		"worstCaseNoise(|V|-2)/eps", "wPINQSignal(eq8)", "signal/noiseRatio")
	for _, row := range []struct {
		name string
		g    *graph.Graph
	}{{"worst(Fig1-left)", worst}, {"best(Fig1-right)", best}} {
		s := graph.ComputeStats(row.g)
		worstNoise := float64(s.Nodes-2) / o.Eps
		signal := queries.TbISignal(row.g)
		tb.AddRow(row.name, s.Nodes, s.Triangles, worstNoise, signal,
			signal/(1/o.Eps))
	}
	fmt.Fprintln(o.Out, "(wPINQ adds only Laplace(1/eps) noise to the weighted signal;")
	fmt.Fprintln(o.Out, " worst-case-sensitivity mechanisms scale noise by |V|-2 on both graphs)")
	return tb.Render(o.Out)
}

// fig1Graphs builds Figure 1's two graphs on about n vertices. The worst
// case has vertices 1, 2 both adjacent to all others and edge (1,2)
// present, so there are n-2 triangles, each through an edge of the
// worst-case pair. The best case is a chain of triangles, each joined to
// the next by one edge: its maximum degree is constant.
func fig1Graphs(n int) (worst, best *graph.Graph) {
	worst = graph.New()
	for i := graph.Node(3); int(i) <= n; i++ {
		worst.AddEdge(1, i)
		worst.AddEdge(2, i)
	}
	worst.AddEdge(1, 2)
	best = graph.New()
	var base graph.Node
	for int(base) < n {
		best.AddEdge(base, base+1)
		best.AddEdge(base+1, base+2)
		best.AddEdge(base, base+2)
		best.AddEdge(base+2, base+3)
		base += 3
	}
	return worst, best
}

// trajectory runs the synthesis workflow and records (step, triangles,
// assortativity) samples: the seed graph at step 0, then the best chain's
// graph at every progress stop that falls on a multiple of sampleEvery.
func trajectory(g *graph.Graph, cfg synth.Config, o Options, seedOffset int64, name string) (*series, *synth.Result, error) {
	every := o.sampleEvery()
	var stops [][]float64
	cfg.ProgressEvery = every
	cfg.OnProgress = func(p synth.Progress) bool {
		if p.Step%every == 0 {
			sg := p.Synthetic()
			stops = append(stops, []float64{float64(p.Step), float64(sg.Triangles()), sg.Assortativity()})
		}
		return true
	}
	res, err := synth.Run(g, cfg, o.rng(seedOffset))
	if err != nil {
		return nil, nil, err
	}
	line := newSeries(name, "step", "triangles", "assortativity")
	line.Add(0, float64(res.Seed.Triangles()), res.Seed.Assortativity())
	line.points = append(line.points, stops...)
	return line, res, nil
}

// Fig3 regenerates Figure 3: TbD-driven synthesis with and without degree
// bucketing, on the GrQc stand-in and its randomization.
func Fig3(o Options) error {
	g, err := datasets.Generate(datasets.GrQc, o.Scale, o.rng(31))
	if err != nil {
		return err
	}
	random := datasets.Randomized(g, o.rng(32))
	fmt.Fprintf(o.Out, "Figure 3: TbD with/without bucketing (GrQc stand-in: true triangles=%d r=%.2f; random: %d)\n",
		g.Triangles(), g.Assortativity(), random.Triangles())
	runs := []struct {
		name   string
		g      *graph.Graph
		bucket int
	}{
		{"CA-GrQc", g, 1},
		{"Random", random, 1},
		{"CA-GrQc+buckets", g, 20},
		{"Random+buckets", random, 20},
	}
	// TbD steps cost 1-2 orders of magnitude more than TbI steps (the
	// deep join ladder touches O(sum of endpoint degrees) path records per
	// swap; the paper reports the same "hundreds of milliseconds" regime),
	// so Figure 3 runs a quarter of the configured budget.
	steps := o.Steps / 4
	if steps < 100 {
		steps = o.Steps
	}
	for i, run := range runs {
		cfg := synth.Config{
			Eps:       o.Eps,
			Workloads: []string{"tbd"},
			Bucket:    run.bucket,
			Pow:       o.Pow,
			Steps:     steps,
			Chains:    o.Chains,
		}
		line, _, err := trajectory(run.g, cfg, o, 33+int64(i), run.name)
		if err != nil {
			return fmt.Errorf("fig3: %s: %w", run.name, err)
		}
		if err := line.Render(o.Out); err != nil {
			return err
		}
	}
	return nil
}

// fig4Graphs returns the four Figure 4 / Table 2 graphs at experiment
// scale.
func fig4Graphs(o Options) (map[datasets.Name]*graph.Graph, error) {
	out := make(map[datasets.Name]*graph.Graph)
	for _, name := range []datasets.Name{datasets.GrQc, datasets.HepPh, datasets.HepTh, datasets.Caltech} {
		g, err := datasets.Generate(name, o.Scale, o.rng(int64(41+len(name))))
		if err != nil {
			return nil, err
		}
		out[name] = g
	}
	return out, nil
}

// Fig4 regenerates Figure 4: TbI-driven fits on four real stand-ins and
// their randomizations.
func Fig4(o Options) error {
	graphs, err := fig4Graphs(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.Out, "Figure 4: fitting triangles with TbI (real vs random)")
	cfg := synth.Config{
		Eps:       o.Eps,
		Workloads: []string{"tbi"},
		Pow:       o.Pow,
		Steps:     o.Steps,
		Chains:    o.Chains,
	}
	i := int64(0)
	for _, name := range []datasets.Name{datasets.GrQc, datasets.HepTh, datasets.HepPh, datasets.Caltech} {
		g := graphs[name]
		random := datasets.Randomized(g, o.rng(50+i))
		for _, run := range []struct {
			label string
			g     *graph.Graph
		}{
			{string(name) + "/real", g},
			{string(name) + "/random", random},
		} {
			line, res, err := trajectory(run.g, cfg, o, 60+i, run.label)
			if err != nil {
				return fmt.Errorf("fig4: %s: %w", run.label, err)
			}
			fmt.Fprintf(o.Out, "# true triangles: %d (accept rate %.1f%%)\n",
				run.g.Triangles(), 100*res.Stats.AcceptRate())
			if err := line.Render(o.Out); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// Table2 regenerates Table 2: triangle counts of the Phase 1 seed, the
// Phase 2 TbI fit, and the ground truth, for the four CA/Caltech graphs.
func Table2(o Options) error {
	graphs, err := fig4Graphs(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.Out, "Table 2: triangles before MCMC (seed), after TbI MCMC, and in the original")
	tb := newTable("Graph", "Seed", "MCMC", "Truth")
	cfg := synth.Config{
		Eps:       o.Eps,
		Workloads: []string{"tbi"},
		Pow:       o.Pow,
		Steps:     o.Steps,
		Chains:    o.Chains,
	}
	for i, name := range []datasets.Name{datasets.GrQc, datasets.HepPh, datasets.HepTh, datasets.Caltech} {
		g := graphs[name]
		res, err := synth.Run(g, cfg, o.rng(70+int64(i)))
		if err != nil {
			return fmt.Errorf("table2: %s: %w", name, err)
		}
		tb.AddRow(string(name), res.Seed.Triangles(), res.Synthetic.Triangles(), g.Triangles())
	}
	return tb.Render(o.Out)
}

// Fig5 regenerates Figure 5: the TbI fit under eps in {0.01, 0.1, 1, 10},
// repeated for error bars, on the GrQc stand-in and its randomization.
func Fig5(o Options) error {
	g, err := datasets.Generate(datasets.GrQc, o.Scale, o.rng(80))
	if err != nil {
		return err
	}
	random := datasets.Randomized(g, o.rng(81))
	fmt.Fprintf(o.Out, "Figure 5: TbI under varying eps (true triangles=%d, random=%d, %d repeats)\n",
		g.Triangles(), random.Triangles(), o.Repeats)
	tb := newTable("eps", "graph", "meanTriangles", "stddev")
	for _, eps := range []float64{0.01, 0.1, 1, 10} {
		for _, run := range []struct {
			label string
			g     *graph.Graph
		}{{"real", g}, {"random", random}} {
			var finals []float64
			for rep := 0; rep < o.Repeats; rep++ {
				cfg := synth.Config{
					Eps:       eps,
					Workloads: []string{"tbi"},
					Pow:       o.Pow,
					Steps:     o.Steps,
					Chains:    o.Chains,
				}
				res, err := synth.Run(run.g, cfg, o.rng(90+int64(rep)+int64(eps*1000)))
				if err != nil {
					return fmt.Errorf("fig5: eps=%v: %w", eps, err)
				}
				finals = append(finals, float64(res.Synthetic.Triangles()))
			}
			mean, std := meanStd(finals)
			tb.AddRow(eps, run.label, mean, std)
		}
	}
	return tb.Render(o.Out)
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// table3Size returns the BA sweep size at the configured scale (paper:
// n = 100000, 20 edges per node).
func (o Options) table3Size() (n, mPerNode int) {
	n = int(100000 * o.Scale)
	if n < 500 {
		n = 500
	}
	mPerNode = 10
	if n <= mPerNode {
		mPerNode = n / 2
	}
	return n, mPerNode
}

// Table3 regenerates Table 3: statistics of the Barabasi-Albert sweep.
func Table3(o Options) error {
	n, m := o.table3Size()
	fmt.Fprintf(o.Out, "Table 3: Barabasi-Albert sweep (n=%d, %d edges/node; paper: n=100000, 20/node)\n", n, m)
	tb := newTable("beta", "Nodes", "Edges", "dmax", "Triangles", "sum d^2")
	for i, beta := range datasets.Table3Betas() {
		g, err := datasets.BarabasiForBeta(beta, n, m, o.rng(100+int64(i)))
		if err != nil {
			return err
		}
		s := graph.ComputeStats(g)
		tb.AddRow(beta, s.Nodes, s.DirectedEdges, s.MaxDegree, s.Triangles, s.SumDegSquares)
	}
	return tb.Render(o.Out)
}

// fig6Size bounds the BA graphs Figure 6 actually loads into a TbI
// pipeline: operator state grows with sum d^2 (the paper needed 25-45 GB
// at n = 100k), so the sweep is capped independently of Table 3's
// statistics-only sizing.
func (o Options) fig6Size() (n, mPerNode int) {
	n = int(100000 * o.Scale)
	if n > 3000 {
		n = 3000
	}
	if n < 500 {
		n = 500
	}
	return n, 8
}

// Fig6 regenerates Figure 6: (left) memory footprint and MCMC throughput
// of the TbI pipeline across the Barabasi-Albert sweep; (right) the TbI
// fit on the Epinions stand-in vs its randomization.
func Fig6(o Options) error {
	n, m := o.fig6Size()
	fmt.Fprintf(o.Out, "Figure 6 (left): TbI pipeline memory and throughput, BA sweep (n=%d, %d/node)\n", n, m)
	tb := newTable("beta", "sum d^2", "heapMB", "steps/sec")
	stepsPerPoint := o.Steps / 10
	if stepsPerPoint < 200 {
		stepsPerPoint = 200
	}
	for i, beta := range datasets.Table3Betas() {
		g, err := datasets.BarabasiForBeta(beta, n, m, o.rng(110+int64(i)))
		if err != nil {
			return err
		}
		sumD2 := g.SumDegreeSquares()
		mem, rate, err := tbiLoadAndRate(g, o, 120+int64(i), stepsPerPoint)
		if err != nil {
			return err
		}
		tb.AddRow(beta, sumD2, mem, rate)
	}
	if err := tb.Render(o.Out); err != nil {
		return err
	}

	fmt.Fprintln(o.Out, "Figure 6 (right): TbI fit on Epinions stand-in vs random")
	g, err := datasets.Generate(datasets.Epinions, o.EpinionsScale, o.rng(130))
	if err != nil {
		return err
	}
	random := datasets.Randomized(g, o.rng(131))
	cfg := synth.Config{
		Eps:       o.Eps,
		Workloads: []string{"tbi"},
		Pow:       o.Pow,
		Steps:     o.Steps,
		Chains:    o.Chains,
	}
	for i, run := range []struct {
		label string
		g     *graph.Graph
	}{{"Epinions/real", g}, {"Epinions/random", random}} {
		line, res, err := trajectory(run.g, cfg, o, 140+int64(i), run.label)
		if err != nil {
			return fmt.Errorf("fig6: %s: %w", run.label, err)
		}
		fmt.Fprintf(o.Out, "# true triangles: %d (accept rate %.1f%%)\n",
			run.g.Triangles(), 100*res.Stats.AcceptRate())
		if err := line.Render(o.Out); err != nil {
			return err
		}
	}
	return nil
}

// tbiLoadAndRate builds a TbI fit plan over g, reports the
// live heap after loading and the sustained MCMC step rate.
func tbiLoadAndRate(g *graph.Graph, o Options, seedOffset int64, steps int) (heapMB, stepsPerSec float64, err error) {
	before := liveHeapMB()
	// Score against the graph's own (noiseless) signal: Figure 6 measures
	// systems behaviour, not accuracy.
	noise, err := laplace.FromEpsilon(o.Eps)
	if err != nil {
		return 0, 0, err
	}
	observed := queries.TbISignal(g) + noise.Sample(o.rng(seedOffset))
	tbi, err := workload.Get("tbi")
	if err != nil {
		return 0, 0, err
	}
	fit, err := tbi.Load([]workload.Entry{{Key: json.RawMessage("{}"), Count: observed}}, 0, o.Eps, o.rng(seedOffset))
	if err != nil {
		return 0, 0, err
	}
	plan := workload.NewPlan()
	if err := fit.Attach(plan, o.Eps); err != nil {
		return 0, 0, err
	}
	state := mcmc.NewGraphState(g, plan.Input())
	runner, err := mcmc.NewRunner(state, plan.Scorer(), mcmc.Config{
		Pow:            o.Pow,
		RecomputeEvery: mcmc.DefaultRecomputeEvery,
	}, o.rng(seedOffset+1))
	if err != nil {
		return 0, 0, err
	}
	heapMB = liveHeapMB() - before
	if heapMB < 0 {
		heapMB = 0
	}
	stepsPerSec = throughput(steps, func() { runner.Step() })
	return heapMB, stepsPerSec, nil
}
