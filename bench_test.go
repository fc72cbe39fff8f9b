package wpinq

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices DESIGN.md calls out. The
// table/figure benchmarks run the same code paths as `cmd/wpinq` at
// reduced scale so `go test -bench=.` completes on one machine; raise the
// scale through cmd/wpinq flags to approach the paper's setup.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/datasets"
	"wpinq/internal/engine"
	"wpinq/internal/experiments"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/mcmc"
	"wpinq/internal/postprocess"
	"wpinq/internal/queries"
	"wpinq/internal/synth"
	"wpinq/internal/weighted"
	"wpinq/internal/workload"
)

// benchOptions shrinks the experiments to benchmark-friendly sizes.
func benchOptions() experiments.Options {
	o := experiments.Defaults(io.Discard)
	o.Scale = 0.05
	o.EpinionsScale = 0.015
	o.Steps = 2000
	o.Samples = 5
	o.Repeats = 2
	o.Eps = 0.5
	return o
}

func BenchmarkTable1GraphStats(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1WorstBestCase(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig1(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3TbDBucketing(b *testing.B) {
	o := benchOptions()
	o.Steps = 500
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig3(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2TbIFit(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4TbITrajectories(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig4(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5EpsilonSweep(b *testing.B) {
	o := benchOptions()
	o.Steps = 500
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig5(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3BarabasiStats(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Scalability(b *testing.B) {
	o := benchOptions()
	o.Scale = 0.006 // fig6Size: n = 600
	o.Steps = 1000
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig6(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// edgeInput is a fresh engine's edge input: what a benchmark that only
// needs an input builds over.
func edgeInput() *engine.Input[graph.Edge] {
	return engine.NewInput[graph.Edge](engine.New())
}

// tbiFixture wires the registered TbI query over a clustered graph and
// returns the MCMC runner, for per-step benchmarks.
func tbiFixture(b *testing.B) *mcmc.Runner {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := graph.HolmeKim(400, 5, 0.6, rng)
	if err != nil {
		b.Fatal(err)
	}
	in := edgeInput()
	sink := incremental.NewNoisyCountSink[queries.Unit](
		queries.Stream(queries.TbI(), nil, in),
		incremental.MapObservations[queries.Unit]{{}: queries.TbISignal(g) * 1.5},
		[]queries.Unit{{}},
		0.5)
	state := mcmc.NewGraphState(g, in)
	runner, err := mcmc.NewRunner(state, incremental.NewScorer(sink), mcmc.Config{
		Pow:            1000,
		RecomputeEvery: mcmc.DefaultRecomputeEvery,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return runner
}

// BenchmarkAblationIncrementalVsRescore compares one incremental MCMC step
// against re-evaluating the TbI query from scratch on the mutated graph —
// the paper's core systems claim (Section 4.3).
func BenchmarkAblationIncrementalVsRescore(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g, err := graph.HolmeKim(400, 5, 0.6, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		runner := tbiFixture(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runner.Step()
		}
	})
	b.Run("fromScratch", func(b *testing.B) {
		work := g.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One swap + full one-shot re-evaluation of TbI.
			graph.Rewire(work, 1, rng)
			edges := core.FromPublic(graph.SymmetricEdges(work))
			snapshot := queries.OneShot(queries.TbI(), edges).Snapshot()
			_ = snapshot.Weight(queries.Unit{})
		}
	})
}

// BenchmarkAblationBucketWidth measures TbD pipeline step cost across
// bucket widths (Figure 3's remedy): wider buckets coalesce output records
// and shrink the measured domain.
func BenchmarkAblationBucketWidth(b *testing.B) {
	for _, bucket := range []int{1, 5, 20, 50} {
		bucket := bucket
		b.Run(map[int]string{1: "k1", 5: "k5", 20: "k20", 50: "k50"}[bucket], func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			g, err := graph.HolmeKim(200, 4, 0.6, rng)
			if err != nil {
				b.Fatal(err)
			}
			in := edgeInput()
			stream := queries.Stream(queries.TbD(bucket), nil, in)
			sink := incremental.NewNoisyCountSink[queries.DegTriple](
				stream, incremental.MapObservations[queries.DegTriple]{}, nil, 0.5)
			state := mcmc.NewGraphState(g, in)
			runner, err := mcmc.NewRunner(state, incremental.NewScorer(sink), mcmc.Config{
				Pow: 1000,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runner.Step()
			}
		})
	}
}

// BenchmarkAblationLazyNoise compares Histogram reads of materialized
// records against reads of never-released ones, whose noise is derived
// from the record on every access (Section 2.2's dictionary, unstored).
func BenchmarkAblationLazyNoise(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	data := weighted.New[int]()
	for i := 0; i < 1000; i++ {
		data.Add(i, float64(i%10)+1)
	}
	c := core.FromDataset(data, budget.NewSource("u", 1e9))
	hist, err := core.NoisyCount(c, 0.5, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.Get(i % 1000)
		}
	})
	b.Run("firstTouch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.Get(1000 + i) // never released: hashes the record, takes the quantile
		}
	})
}

// --- Operator microbenchmarks --------------------------------------------

func BenchmarkWeightedJoinReference(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g, err := graph.HolmeKim(300, 4, 0.5, rng)
	if err != nil {
		b.Fatal(err)
	}
	d := graph.SymmetricEdges(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weighted.Join(d, d,
			func(e graph.Edge) graph.Node { return e.Dst },
			func(e graph.Edge) graph.Node { return e.Src },
			func(x, y graph.Edge) queries.Path { return queries.Path{A: x.Src, B: x.Dst, C: y.Dst} })
	}
}

func BenchmarkIncrementalSwapThroughTbI(b *testing.B) {
	runner := tbiFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Step()
	}
}

func BenchmarkNoisyCountRelease(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	data := weighted.New[int]()
	for i := 0; i < 10000; i++ {
		data.Add(i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.FromDataset(data, budget.NewSource("u", 1e9))
		if _, err := core.NoisyCount(c, 0.5, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureOneShot times the one-shot measurement path end to
// end: synth.Measure of jdd and wedges (plus the three seed queries) on
// HolmeKim(4000, 5), the bench program's bulk-load graph. wedges
// pushes ~10^6 length-two paths through Join -> Where -> Select into a
// single record, so ns/op, B/op and allocs/op here gate the lazy core
// plan against materializing — or sorting — an intermediate again.
func BenchmarkMeasureOneShot(b *testing.B) {
	g, err := graph.HolmeKim(4000, 5, 0.5, rand.New(rand.NewSource(31)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := synth.Config{Eps: 0.1, Workloads: []string{"jdd", "wedges"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Measure(g, cfg, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeedGraph times synth.SeedGraph on a jdd measurement of
// HolmeKim(edges/5, 5) — at 20000 edges the bench program's bulk-load
// graph, at 10⁶ the scale the paper claims: ns/op is the whole call.
// Outside the timer each iteration replays the call's three phases on what
// it fitted: the lattice regression (gridpath-ms, on a grid as wide as the
// released node count and half again as high as the fitted maximum degree —
// SeedGraph's own height is its CCDF extent scan plus the same slack),
// Havel-Hakimi into a graph (realize-ms) and what the 20 swap attempts per
// edge add to that (rewire-ms). realize-ms is where a per-vertex re-sort
// would show: it grew with the square of the size, the other two do not.
func BenchmarkSeedGraph(b *testing.B) {
	for _, edges := range []int{20_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			if edges > 100_000 && testing.Short() {
				b.Skip("-short runs 2e4 and 1e5 edges; the 1e6-edge run is local/nightly")
			}
			benchmarkSeedGraph(b, edges/5)
		})
	}
}

func benchmarkSeedGraph(b *testing.B, n int) {
	g, err := graph.HolmeKim(n, 5, 0.5, rand.New(rand.NewSource(31)))
	if err != nil {
		b.Fatal(err)
	}
	m, err := synth.Measure(g, synth.Config{Eps: 0.1, Workloads: []string{"jdd"}}, rand.New(rand.NewSource(32)))
	if err != nil {
		b.Fatal(err)
	}
	width := m.EstimatedNodes()
	v := make([]float64, width)
	for x := range v {
		v[x] = m.DegSeq.Get(x)
	}
	var gridpath, realize, rewire time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		seed, err := synth.SeedGraph(m, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		height := min(width, seed.MaxDegree()+seed.MaxDegree()/2+8)
		h := make([]float64, height)
		for y := range h {
			h[y] = m.CCDF.Get(y)
		}
		t0 := time.Now()
		if _, err := postprocess.GridPath(v, h, width, height); err != nil {
			b.Fatal(err)
		}
		gridpath += time.Since(t0)
		// FromDegreeSequence gives vertex i the i-th degree, so the seed's
		// degrees by id are the sequence it was built from.
		degrees := make([]int, seed.NumNodes())
		for v := range degrees {
			degrees[v] = seed.Degree(graph.Node(v))
		}
		t0 = time.Now()
		if _, err := graph.FromDegreeSequence(degrees, 0, rng); err != nil {
			b.Fatal(err)
		}
		unmixed := time.Since(t0)
		t0 = time.Now()
		if _, err := graph.FromDegreeSequence(degrees, 20, rng); err != nil {
			b.Fatal(err)
		}
		realize += unmixed
		rewire += time.Since(t0) - unmixed
		b.StartTimer()
	}
	perOp := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(perOp(gridpath), "gridpath-ms")
	b.ReportMetric(perOp(realize), "realize-ms")
	b.ReportMetric(perOp(rewire), "rewire-ms")
}

// bulkLoadSink defeats dead-code elimination in BenchmarkBulkLoad.
var bulkLoadSink float64

// BenchmarkBulkLoad times the executor's bulk push: the fused jdd,wedges
// plan of the bench program's bulk-load workload is built, attached and
// loaded with the seed graph of a HolmeKim(4000, 5) measurement — the
// push every fit starts with and every checkpoint re-anchor repeats —
// and with the seed graph of serve-durable's HolmeKim(300, 4)
// measurement: what each re-anchor of a daemon job loads. Sub-benchmarks
// are named by the seed graph's edge count.
// records/op is what the load has to move — the paths join's output, one
// record per ordered pair of edges at a vertex — and MB-alloc/op is what
// it allocates to move them.
func BenchmarkBulkLoad(b *testing.B) {
	for _, c := range []struct{ nodes, perNode int }{
		{4000, 5}, // bulk-load's measurement
		{300, 4},  // serve-durable's
	} {
		g, err := graph.HolmeKim(c.nodes, c.perNode, 0.5, rand.New(rand.NewSource(31)))
		if err != nil {
			b.Fatal(err)
		}
		m, err := synth.Measure(g, synth.Config{Eps: 0.1, Workloads: []string{"jdd", "wedges"}}, rand.New(rand.NewSource(32)))
		if err != nil {
			b.Fatal(err)
		}
		seed, err := synth.SeedGraph(m, rand.New(rand.NewSource(33)))
		if err != nil {
			b.Fatal(err)
		}
		records := 0
		for _, v := range seed.Nodes() {
			records += seed.Degree(v) * seed.Degree(v)
		}
		b.Run(fmt.Sprintf("edges=%d", seed.NumEdges()), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := workload.NewPlan()
				for _, name := range m.FitNames() {
					if err := m.Fits[name].Attach(p, m.Eps); err != nil {
						b.Fatal(err)
					}
				}
				mcmc.NewGraphState(seed, p.Input())
				bulkLoadSink = p.Scorer().Score()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(records), "records/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(b.N), "MB-alloc/op")
		})
	}
}

func BenchmarkGraphGenerators(b *testing.B) {
	b.Run("collaboration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datasets.Generate(datasets.GrQc, 0.1, rand.New(rand.NewSource(int64(i)))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("barabasi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datasets.BarabasiForBeta(0.6, 2000, 8, rand.New(rand.NewSource(int64(i)))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRegressionPostprocessing(b *testing.B) {
	o := benchOptions()
	o.Repeats = 2
	for i := 0; i < b.N; i++ {
		if err := experiments.Regression(o); err != nil {
			b.Fatal(err)
		}
	}
}

// rejectHeavySink defeats dead-code elimination in BenchmarkRejectHeavy.
var rejectHeavySink float64

// BenchmarkRejectHeavy measures the transactional propose/score/abort
// protocol where it pays: a fit whose pow is harsh enough that the
// overwhelming majority of proposals is rejected (the regime a
// near-greedy pow runs in). Each iteration runs
// the same seeded 1500-step walk, aborting rejected proposals from the
// operators' undo logs: one propagation per proposal, where re-pushing
// the inverse swap — the pre-transactional protocol, last measured at
// 675 ms against 541 — paid two per reject.
func BenchmarkRejectHeavy(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g, err := graph.HolmeKim(300, 4, 0.6, rng)
	if err != nil {
		b.Fatal(err)
	}
	// Observed triangle count and joint degree distribution equal to the
	// seed's: every swap that changes either strictly worsens the fit,
	// and at pow 1e7 essentially none is accepted.
	observed := float64(g.Triangles())
	jddObserved := incremental.MapObservations[queries.DegPair]{}
	pathsObserved := incremental.MapObservations[queries.Path]{}
	{
		in := edgeInput()
		jddColl := incremental.Collect(queries.Stream(queries.JDD(), nil, in))
		pathColl := incremental.Collect(queries.Stream(queries.Paths(), nil, in))
		in.PushDataset(graph.SymmetricEdges(g))
		jddColl.Snapshot().Range(func(x queries.DegPair, w float64) { jddObserved[x] = w })
		pathColl.Snapshot().Range(func(x queries.Path, w float64) { pathsObserved[x] = w })
	}

	b.Run("txn", func(b *testing.B) {
		b.ReportAllocs()
		var accepted int
		var steps int
		for i := 0; i < b.N; i++ {
			in := edgeInput()
			sink := incremental.NewNoisyCountSink[queries.Unit](
				queries.Stream(queries.TbI(), nil, in),
				incremental.MapObservations[queries.Unit]{{}: observed},
				[]queries.Unit{{}}, 0.5)
			jddSink := incremental.NewNoisyCountSink[queries.DegPair](
				queries.Stream(queries.JDD(), nil, in), jddObserved, nil, 0.5)
			pathSink := incremental.NewNoisyCountSink[queries.Path](
				queries.Stream(queries.Paths(), nil, in), pathsObserved, nil, 0.5)
			state := mcmc.NewGraphState(g, in)
			r, err := mcmc.NewRunner(state, incremental.NewScorer(sink, jddSink, pathSink), mcmc.Config{Pow: 1e7}, rand.New(rand.NewSource(10)))
			if err != nil {
				b.Fatal(err)
			}
			st := r.Run(1500)
			accepted += st.Accepted
			steps += st.Steps
			rejectHeavySink = st.FinalScore
		}
		if steps > 0 {
			rate := float64(accepted) / float64(steps)
			b.ReportMetric(rate, "accept-rate")
			if rate > 0.10 {
				b.Fatalf("accept rate %.2f; benchmark must be reject-heavy (<0.10)", rate)
			}
		}
	})
}

// fusedChainsSink defeats dead-code elimination in the swap benchmarks
// (pushSwaps).
var fusedChainsSink float64

// BenchmarkFusedChains measures per-proposal propagation cost over
// walk-hot's four workloads (tbi, tbd, jdd, wedges) with plan fusion on
// and off: the same preloaded plan absorbs a steady stream of edge-swap
// differences (each swap immediately undone by its inverse, so state
// cannot drift across b.N). Fusion's claim is that per-proposal work
// scales with the merged DAG, not the workload count; fragpushes/op
// reports the fragment batch deliveries behind each swap, the quantity
// fusing shrinks. star4-by-degree stays out: it costs three orders of
// magnitude more a swap than the other four together, so with it the
// fused/unfused gap measured star4, not fusion (BenchmarkStar4ByDegreeStep
// tracks it on its own).
func BenchmarkFusedChains(b *testing.B) {
	for _, cfg := range []struct {
		name string
		fuse bool
	}{{"fused", true}, {"unfused", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			p, fwd, rev := swapPlan(b, []string{"tbi", "tbd", "jdd", "wedges"}, cfg.fuse)
			base := p.Fusion().Pushes()
			pushSwaps(b, p, fwd, rev)
			b.ReportMetric(float64(p.Fusion().Pushes()-base)/float64(b.N), "fragpushes/op")
		})
	}
}

// BenchmarkStar4ByDegreeStep measures what one swap costs the
// star4-by-degree workload alone, on BenchmarkFusedChains' graph and
// swap: its joins keyed by embedded degrees make it the costliest
// workload a fit can name by far.
func BenchmarkStar4ByDegreeStep(b *testing.B) {
	p, fwd, rev := swapPlan(b, []string{"star4-by-degree"}, true)
	pushSwaps(b, p, fwd, rev)
}

// swapPlan measures the named workloads on HolmeKim(100, 3) (eps 0.5,
// bucket 5), loads the fits into a plan, fused or not, with the graph
// pushed, and returns the plan with one valid swap and its inverse.
func swapPlan(b *testing.B, names []string, fuse bool) (*workload.Plan, []incremental.Delta[graph.Edge], []incremental.Delta[graph.Edge]) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	g, err := graph.HolmeKim(100, 3, 0.5, rng)
	if err != nil {
		b.Fatal(err)
	}
	const (
		eps    = 0.5
		bucket = 5
	)
	ws, err := workload.Resolve(names)
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, w := range ws {
		total += w.Uses
	}
	src := budget.NewSource("edges", float64(total)*eps*(1+1e-9))
	edges := core.FromDataset(graph.SymmetricEdges(g), src)
	p := workload.NewPlanFused(1, fuse)
	seedRng := rand.New(rand.NewSource(23))
	for _, w := range ws {
		m, err := w.Measure(edges, bucket, eps, rng)
		if err != nil {
			b.Fatal(err)
		}
		entries, err := m.Entries()
		if err != nil {
			b.Fatal(err)
		}
		fit, err := w.Load(entries, m.Bucket, eps, seedRng)
		if err != nil {
			b.Fatal(err)
		}
		if err := fit.Attach(p, eps); err != nil {
			b.Fatal(err)
		}
	}
	p.Input().PushDataset(graph.SymmetricEdges(g))

	// One valid swap and its inverse, pushed alternately.
	el := g.EdgeList()
	var fwd, rev []incremental.Delta[graph.Edge]
	for i := 0; i+1 < len(el) && fwd == nil; i++ {
		a, bb := el[i].Src, el[i].Dst
		c, d := el[i+1].Src, el[i+1].Dst
		if a == d || c == bb || a == c || bb == d || g.HasEdge(a, d) || g.HasEdge(c, bb) {
			continue
		}
		for _, e := range [][2]graph.Node{{a, bb}, {bb, a}, {c, d}, {d, c}} {
			fwd = append(fwd, incremental.Delta[graph.Edge]{Record: graph.Edge{Src: e[0], Dst: e[1]}, Weight: -1})
			rev = append(rev, incremental.Delta[graph.Edge]{Record: graph.Edge{Src: e[0], Dst: e[1]}, Weight: 1})
		}
		for _, e := range [][2]graph.Node{{a, d}, {d, a}, {c, bb}, {bb, c}} {
			fwd = append(fwd, incremental.Delta[graph.Edge]{Record: graph.Edge{Src: e[0], Dst: e[1]}, Weight: 1})
			rev = append(rev, incremental.Delta[graph.Edge]{Record: graph.Edge{Src: e[0], Dst: e[1]}, Weight: -1})
		}
	}
	if fwd == nil {
		b.Fatal("no valid swap found")
	}
	return p, fwd, rev
}

// pushSwaps times b.N pushes of fwd and rev, alternately. Swaps are
// pushed the way a fit pushes them, inside a transaction: a push outside
// one is a load to the operators, which release a load's oversized
// scratch as it ends.
func pushSwaps(b *testing.B, p *workload.Plan, fwd, rev []incremental.Delta[graph.Edge]) {
	in := p.Input()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Begin()
		if i%2 == 0 {
			in.Push(fwd)
		} else {
			in.Push(rev)
		}
		in.Commit()
	}
	b.StopTimer()
	fusedChainsSink = p.Scorer().Score()
}

// --- Million-edge scale --------------------------------------------------

// millionEdgeSink defeats dead-code elimination in BenchmarkMillionEdge.
var millionEdgeSink float64

// BenchmarkMillionEdge exercises the streaming hot path at the paper's
// claimed scale (Section 5's million-edge graphs): a Barabási–Albert
// graph (m = 8) is bulk-loaded into the three degree workloads — the
// degree CCDF, the degree sequence, and per-vertex degrees — and then a
// fixed 200-proposal transactional walk alternates commits and aborts.
// The triangle and JDD pipelines are excluded on purpose: their join
// state grows superlinearly with degree and would measure state size,
// not the streaming path. allocs/op and B/op gate the pooled buffers;
// heapMB reports the heap high-water mark (read after bulk load and
// after the walk), the figure that decides whether a graph of this
// scale fits the box at all. The 1e5-edge variant runs under -short and
// is the CI-gated smoke; the 1e6-edge variant is the full-scale run for
// local and nightly use.
func BenchmarkMillionEdge(b *testing.B) {
	for _, edges := range []int{100_000, 1_000_000} {
		edges := edges
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			if edges > 100_000 && testing.Short() {
				b.Skip("-short runs the 1e5-edge smoke; the 1e6-edge run is local/nightly")
			}
			const m = 8
			g, err := datasets.BarabasiForBeta(0.6, edges/m, m, rand.New(rand.NewSource(17)))
			if err != nil {
				b.Fatal(err)
			}
			var heapHigh uint64
			readHeap := func() {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > heapHigh {
					heapHigh = ms.HeapAlloc
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := edgeInput()
				ccdf := incremental.NewNoisyCountSink[int](
					queries.Stream(queries.DegreeCCDF(), nil, in), incremental.MapObservations[int]{}, nil, 0.5)
				seq := incremental.NewNoisyCountSink[int](
					queries.Stream(queries.DegreeSequence(), nil, in), incremental.MapObservations[int]{}, nil, 0.5)
				degs := incremental.NewNoisyCountSink[weighted.Grouped[graph.Node, int]](
					queries.Stream(queries.Degrees(1), nil, in),
					incremental.MapObservations[weighted.Grouped[graph.Node, int]]{}, nil, 0.5)
				scorer := incremental.NewScorer(ccdf, seq, degs)
				state := mcmc.NewGraphState(g, in) // pushes the initial dataset itself
				readHeap()
				rng := rand.New(rand.NewSource(29))
				valid := 0
				for valid < 200 {
					prop, ok := state.Propose(rng)
					if !ok {
						continue
					}
					valid++
					state.Speculate(prop)
					millionEdgeSink = scorer.Score()
					if valid%2 == 0 {
						state.Commit()
					} else {
						state.Abort(prop)
					}
				}
				readHeap()
			}
			b.StopTimer()
			b.ReportMetric(float64(heapHigh)/1e6, "heapMB")
		})
	}
}
