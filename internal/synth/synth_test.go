package synth

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"wpinq/internal/graph"
)

func testRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func clusteredGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := graph.HolmeKim(n, 4, 0.8, testRng(1000))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Eps: 0, Workloads: []string{"tbi"}},
		{Eps: 0.1, Workloads: []string{"no-such-workload"}},
		{Eps: 0.1, Workloads: []string{"tbi", "tbi"}},
		{Eps: 0.1, Workloads: []string{"tbi"}, Steps: -1},
		{Eps: math.NaN(), Workloads: []string{"tbi"}},
		{Eps: math.Inf(1), Workloads: []string{"tbi"}},
		{Eps: 0.1, Workloads: []string{"tbi"}, Pow: math.NaN()},
		{Eps: 0.1, Workloads: []string{"tbi"}, Pow: math.Inf(1)},
		{Eps: 0.1, Workloads: []string{"tbi"}, Pow: -5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	good := Config{Eps: 0.1, Workloads: []string{"tbi"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Pow != 10000 || good.SwapEvery == 0 || good.ProgressEvery == 0 {
		t.Errorf("defaults not applied: %+v", good)
	}
}

func TestMeasureCostMatchesPaper(t *testing.T) {
	g := clusteredGraph(t, 120)
	// TbI workflow: seed (3 eps) + TbI (4 eps) = 7 eps = 0.7 at eps = 0.1
	// (paper Section 5.3).
	m, err := Measure(g, Config{Eps: 0.1, Workloads: []string{"tbi"}}, testRng(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalCost-0.7) > 1e-9 {
		t.Errorf("TbI workflow cost = %v, want 0.7", m.TotalCost)
	}
	// TbD workflow: seed (3 eps) + TbD (9 eps) = 1.2 at eps = 0.1
	// (paper Section 5.2).
	m2, err := Measure(g, Config{Eps: 0.1, Workloads: []string{"tbd"}, Bucket: 20}, testRng(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2.TotalCost-1.2) > 1e-9 {
		t.Errorf("TbD workflow cost = %v, want 1.2", m2.TotalCost)
	}
}

// TestMeasureIsTheSameAtAnyGOMAXPROCS pins that evaluating a release's
// queries concurrently moves no released bit: on two graphs and two seeds,
// a release of every registered workload measured at GOMAXPROCS 1, 2 and
// 4 saves to the same bytes, charges the same total and leaves the rng at
// the same draw. GOMAXPROCS 1 evaluates on the calling goroutine, one
// query after another, as a sequential Measure does.
func TestMeasureIsTheSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	other, err := graph.HolmeKim(80, 3, 0.3, testRng(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eps: 0.5, Workloads: []string{"tbi", "tbd", "jdd", "wedges", "star4-by-degree"}, Bucket: 5}
	for gi, g := range []*graph.Graph{clusteredGraph(t, 60), other} {
		for _, seed := range []int64{1, 2} {
			var want []byte
			var wantCost float64
			var wantNext uint64
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				rng := testRng(seed)
				m, err := Measure(g, cfg, rng)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				next := rng.Uint64()
				if procs == 1 {
					want, wantCost, wantNext = buf.Bytes(), m.TotalCost, next
					continue
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("graph %d, seed %d: GOMAXPROCS %d saves different bytes than GOMAXPROCS 1", gi, seed, procs)
				}
				if m.TotalCost != wantCost {
					t.Errorf("graph %d, seed %d: GOMAXPROCS %d charges %v, GOMAXPROCS 1 %v", gi, seed, procs, m.TotalCost, wantCost)
				}
				if next != wantNext {
					t.Errorf("graph %d, seed %d: GOMAXPROCS %d leaves the rng at %x, GOMAXPROCS 1 at %x", gi, seed, procs, next, wantNext)
				}
			}
		}
	}
}

// TestFitIsTheSameAtAnyGOMAXPROCS pins that a load running the plan's
// independent branches at once moves no bit of a fit: durable fits of two
// fused workload sets on two graphs, whose start and every re-anchor are
// loads, give the same edge list, Stats, score bits, residuals and
// checkpoint bytes at GOMAXPROCS 1, 2 and 4. GOMAXPROCS 1 runs every
// round on the pushing goroutine, node after node. Each graph has at
// least 2 048 edges, so that a load pushes the 4 096 records (two per
// edge) the engine runs at once.
func TestFitIsTheSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for gi, n := range []int{700, 800} {
		g, err := graph.HolmeKim(n, 3, 0.5, testRng(int64(20+gi)))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() < 2048 {
			t.Fatalf("graph %d has %d edges: its loads would run serially", gi, g.NumEdges())
		}
		for _, workloads := range [][]string{{"tbi", "tbd", "jdd", "wedges"}, {"jdd", "wedges"}} {
			m, err := Measure(g, Config{Eps: 0.5, Workloads: workloads, Bucket: 5}, testRng(3))
			if err != nil {
				t.Fatal(err)
			}
			var want *Result
			var wantCkpts map[int][]byte
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				rng := testRng(7)
				seedG, err := SeedGraph(m, rng)
				if err != nil {
					t.Fatal(err)
				}
				ckpts := make(map[int][]byte)
				cfg := Config{Eps: 0.5, Steps: 300, CheckpointEvery: 150, OnCheckpoint: func(ck *Checkpoint) bool {
					var buf bytes.Buffer
					if err := ck.Save(&buf); err != nil {
						t.Errorf("saving checkpoint at step %d: %v", ck.Step, err)
					}
					ckpts[ck.Step] = buf.Bytes()
					return true
				}}
				res, err := Synthesize(m, seedG, cfg, rng)
				if err != nil {
					t.Fatal(err)
				}
				if len(ckpts) == 0 {
					t.Fatal("the fit wrote no checkpoint")
				}
				if procs == 1 {
					want, wantCkpts = res, ckpts
					continue
				}
				at := fmt.Sprintf("graph %d, %v, GOMAXPROCS %d", gi, workloads, procs)
				if !slices.Equal(res.Synthetic.EdgeList(), want.Synthetic.EdgeList()) {
					t.Errorf("%s: a different edge list than at GOMAXPROCS 1", at)
				}
				if res.Stats != want.Stats || math.Float64bits(res.Stats.FinalScore) != math.Float64bits(want.Stats.FinalScore) {
					t.Errorf("%s: Stats %+v, at GOMAXPROCS 1 %+v", at, res.Stats, want.Stats)
				}
				if !reflect.DeepEqual(res.Residuals, want.Residuals) {
					t.Errorf("%s: residuals %+v, at GOMAXPROCS 1 %+v", at, res.Residuals, want.Residuals)
				}
				if !maps.EqualFunc(ckpts, wantCkpts, bytes.Equal) {
					t.Errorf("%s: checkpoints differ from GOMAXPROCS 1's", at)
				}
			}
		}
	}
}

func TestEstimatedNodesNearTruth(t *testing.T) {
	g := clusteredGraph(t, 200)
	m, err := Measure(g, Config{Eps: 1.0, Workloads: []string{"tbi"}}, testRng(3))
	if err != nil {
		t.Fatal(err)
	}
	est := m.EstimatedNodes()
	if est < 190 || est > 210 {
		t.Errorf("estimated nodes = %d, want near 200", est)
	}
}

func TestSeedGraphMatchesDegreeShape(t *testing.T) {
	g := clusteredGraph(t, 150)
	m, err := Measure(g, Config{Eps: 1.0, Workloads: []string{"tbi"}}, testRng(4))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := SeedGraph(m, testRng(5))
	if err != nil {
		t.Fatal(err)
	}
	// The seed's edge count should be within 25% of the original's.
	ratio := float64(seed.NumEdges()) / float64(g.NumEdges())
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("seed edges = %d vs original %d (ratio %v)", seed.NumEdges(), g.NumEdges(), ratio)
	}
	// Max degrees in the same ballpark.
	if seed.MaxDegree() < g.MaxDegree()/2 || seed.MaxDegree() > g.MaxDegree()*2 {
		t.Errorf("seed dmax = %d vs original %d", seed.MaxDegree(), g.MaxDegree())
	}
}

func TestFullWorkflowIncreasesTriangles(t *testing.T) {
	// On a clustered graph, the seed is triangle-poor (random given
	// degrees) and Phase 2 must push the triangle count toward the truth.
	g := clusteredGraph(t, 100)
	cfg := Config{
		Eps:       1.0,
		Workloads: []string{"tbi"},
		Pow:       5000,
		Steps:     8000,
	}
	res, err := Run(g, cfg, testRng(6))
	if err != nil {
		t.Fatal(err)
	}
	seedTris := res.Seed.Triangles()
	synthTris := res.Synthetic.Triangles()
	trueTris := g.Triangles()
	if synthTris <= seedTris {
		t.Errorf("triangles: seed %d -> synth %d; MCMC should increase toward %d",
			seedTris, synthTris, trueTris)
	}
	// The synthetic count should close a meaningful part of the gap.
	if float64(synthTris) < float64(seedTris)+0.2*float64(trueTris-seedTris) {
		t.Errorf("triangles: seed %d, synth %d, true %d; too little progress",
			seedTris, synthTris, trueTris)
	}
	// Degrees preserved by the walk.
	seedSeq := res.Seed.DegreeSequence()
	synthSeq := res.Synthetic.DegreeSequence()
	for i := range seedSeq {
		if seedSeq[i] != synthSeq[i] {
			t.Fatal("Phase 2 changed the degree sequence")
		}
	}
}

func TestSynthesizeRequiresMeasurement(t *testing.T) {
	g := clusteredGraph(t, 60)
	m, err := Measure(g, Config{Eps: 0.5, Workloads: []string{"tbi"}}, testRng(7))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := SeedGraph(m, testRng(8))
	if err != nil {
		t.Fatal(err)
	}
	// Asking to fit TbD without having measured it must fail.
	_, err = Synthesize(m, seed, Config{Eps: 0.5, Workloads: []string{"tbd"}, Steps: 10}, testRng(9))
	if err == nil {
		t.Error("TbD fit without TbD measurement accepted")
	}
}

func TestTbDWorkflowRuns(t *testing.T) {
	g := clusteredGraph(t, 80)
	cfg := Config{
		Eps:       0.5,
		Workloads: []string{"tbd"},
		Bucket:    10,
		Pow:       1000,
		Steps:     300,
	}
	res, err := Run(g, cfg, testRng(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Accepted == 0 {
		t.Error("TbD workflow accepted no steps")
	}
	if res.Synthetic.NumEdges() != res.Seed.NumEdges() {
		t.Error("edge count changed during MCMC")
	}
}

func TestRandomGraphStaysTrianglePoor(t *testing.T) {
	// Fitting a *random* graph's measurements should not inject many
	// triangles: the Figure 4 sanity check.
	g := clusteredGraph(t, 100)
	random := g.Clone()
	graph.Rewire(random, 30*random.NumEdges(), testRng(11))
	cfg := Config{
		Eps:       1.0,
		Workloads: []string{"tbi"},
		Pow:       5000,
		Steps:     6000,
	}
	resReal, err := Run(g, cfg, testRng(12))
	if err != nil {
		t.Fatal(err)
	}
	resRand, err := Run(random, cfg, testRng(12))
	if err != nil {
		t.Fatal(err)
	}
	if resRand.Synthetic.Triangles() >= resReal.Synthetic.Triangles() {
		t.Errorf("random-fit triangles (%d) should stay below real-fit (%d)",
			resRand.Synthetic.Triangles(), resReal.Synthetic.Triangles())
	}
}

func TestExecutorsScoreIdentically(t *testing.T) {
	// Shards is retired: whatever width a caller still passes, the fit
	// is the same one, to the bit. Synthesize with zero steps reports
	// the initial scorer value, which exercises every registered
	// workload's pipeline stack end to end.
	g := clusteredGraph(t, 90)
	base := Config{
		Eps:       1.0,
		Workloads: []string{"tbi", "tbd", "jdd", "wedges", "star4-by-degree"},
		Bucket:    10,
		Pow:       100,
	}
	m, err := Measure(g, base, testRng(20))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := SeedGraph(m, testRng(21))
	if err != nil {
		t.Fatal(err)
	}
	score := func(shards int) float64 {
		cfg := base
		cfg.Shards = shards
		cfg.Steps = 0
		res, err := Synthesize(m, seed.Clone(), cfg, testRng(22))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res.Stats.FinalScore
	}
	ref := score(-1)
	for _, shards := range []int{0, 1, 4} {
		if got := score(shards); math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("shards=%d score %v, shards=-1 %v", shards, got, ref)
		}
	}
}

func TestReferenceEngineWorkflowRuns(t *testing.T) {
	// Shards -1 selected the retired serial reference engine; like any
	// Shards value it is accepted and ignored: the same fixed-seed
	// workflow, edge for edge and score bit for score bit.
	g := clusteredGraph(t, 80)
	run := func(shards int) *Result {
		cfg := Config{
			Eps:       1.0,
			Workloads: []string{"tbi", "jdd"},
			Pow:       1000,
			Steps:     500,
			Shards:    shards,
		}
		res, err := Run(g, cfg, testRng(23))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	minusOne, one := run(-1), run(1)
	if minusOne.Stats.Accepted == 0 {
		t.Error("workflow accepted no steps")
	}
	var a, b bytes.Buffer
	if err := graph.WriteEdgeList(&a, minusOne.Synthetic); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(&b, one.Synthetic); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Shards -1 and Shards 1 wrote different edge lists for one seed")
	}
	if minusOne.Stats != one.Stats {
		t.Errorf("Shards -1 walked %+v, Shards 1 %+v", minusOne.Stats, one.Stats)
	}
}

func TestSynthesizeUsesMeasuredTbDBucket(t *testing.T) {
	// The fit pipeline must bucket degrees exactly as the released TbD
	// measurement did (its recorded Fit.Bucket), even when the caller's
	// Config omits or mis-states the bucket — otherwise the pipeline's
	// records would miss the measured domain entirely and MCMC would fit
	// fresh noise.
	g := clusteredGraph(t, 80)
	measured := Config{Eps: 1.0, Workloads: []string{"tbd"}, Bucket: 10}
	m, err := Measure(g, measured, testRng(30))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := SeedGraph(m, testRng(31))
	if err != nil {
		t.Fatal(err)
	}
	score := func(cfgBucket int) float64 {
		cfg := Config{Eps: 1.0, Workloads: []string{"tbd"}, Bucket: cfgBucket, Pow: 100, Steps: 0}
		res, err := Synthesize(m, seed.Clone(), cfg, testRng(32))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.FinalScore
	}
	right, wrong := score(10), score(0)
	if math.Abs(right-wrong) > 1e-6*(1+math.Abs(right)) {
		t.Errorf("score with cfg bucket 0 = %v, with matching bucket = %v; "+
			"Synthesize must bucket by the measurement's recorded width", wrong, right)
	}
}

func TestNewWorkloadsSynthesizeEndToEnd(t *testing.T) {
	// The registry's payoff scenario: fit workloads the pre-registry
	// architecture could not express at all — the wedge count plus the
	// star4-by-degree motif profile — run the whole measure → save →
	// load → seed → fit workflow. The wedge signal is
	// invariant under degree-preserving swaps (it is a function of the
	// degree sequence), so the fit's moving part is the motif profile;
	// what this test pins is that heterogeneous, motif-typed workloads
	// compose in one scorer and the walk still runs.
	// Small graph and short walk: per-swap motif-profile deltas touch
	// O(d^3) embeddings around each changed endpoint, so this is the
	// most expensive fit per step in the test suite.
	g := clusteredGraph(t, 36)
	cfg := Config{
		Eps:       1.0,
		Workloads: []string{"wedges", "star4-by-degree"},
		Bucket:    8,
		Pow:       5,
		Steps:     60,
	}
	m, err := Measure(g, cfg, testRng(60))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.TotalCost, float64(SeedCost+2+7)*cfg.Eps; math.Abs(got-want) > 1e-9 {
		t.Errorf("total cost = %v, want %v (3 seed + 2 wedges + 7 star4-by-degree)", got, want)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMeasurements(bytes.NewReader(buf.Bytes()), testRng(61))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Fits["star4-by-degree"].Bucket; got != 8 {
		t.Fatalf("star4-by-degree bucket = %d after round trip, want 8", got)
	}
	seed, err := SeedGraph(loaded, testRng(62))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(loaded, seed, cfg, testRng(63))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Accepted == 0 {
		t.Error("motif-profile fit accepted nothing")
	}
	if math.IsNaN(res.Stats.FinalScore) || res.Stats.FinalScore <= 0 {
		t.Errorf("degenerate final score %v", res.Stats.FinalScore)
	}
}
