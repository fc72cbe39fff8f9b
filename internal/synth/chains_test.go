package synth

import (
	"math"
	"sync"
	"testing"

	"wpinq/internal/graph"
)

// fixtureMeasurements measures a small clustered graph and builds its
// seed, shared by the chain tests.
func fixtureMeasurements(t *testing.T, n int, workloads []string, bucket int) (*Measurements, *graph.Graph) {
	t.Helper()
	g := clusteredGraph(t, n)
	m, err := Measure(g, Config{Eps: 1.0, Workloads: workloads, Bucket: bucket}, testRng(500))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := SeedGraph(m, testRng(501))
	if err != nil {
		t.Fatal(err)
	}
	return m, seed
}

// TestRunChunkedProgressEveryZeroTerminates pins the regression where a
// fit with OnProgress set but ProgressEvery <= 0 (Validate's default
// undone) spun forever on zero-step chunks: to the one driver a zero
// cadence means no extra stops, and the report at the end still fires.
func TestRunChunkedProgressEveryZeroTerminates(t *testing.T) {
	m, seed := fixtureMeasurements(t, 60, []string{"tbi"}, 0)
	cfg := Config{Eps: m.Eps, Workloads: []string{"tbi"}, Pow: 100, Steps: 64}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Undo the validated default.
	cfg.ProgressEvery = 0
	calls := 0
	cfg.OnProgress = func(p Progress) bool { calls++; return true }
	res, err := Synthesize(m, seed.Clone(), cfg, testRng(510))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps != 64 {
		t.Errorf("ran %d steps, want 64", res.Stats.Steps)
	}
	if calls == 0 {
		t.Error("OnProgress never called")
	}
}

// TestZeroStepsReportsCurrentScore pins the regression where the
// OnProgress path returned FinalScore == 0 for Steps == 0 while the
// plain path correctly reported the runner's current score.
func TestZeroStepsReportsCurrentScore(t *testing.T) {
	m, seed := fixtureMeasurements(t, 60, []string{"tbi"}, 0)
	base := Config{Eps: m.Eps, Workloads: []string{"tbi"}, Pow: 100, Steps: 0}

	plain, err := Synthesize(m, seed.Clone(), base, testRng(520))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.FinalScore == 0 {
		t.Fatal("fixture has zero initial score; test needs a nonzero one")
	}
	observed := base
	observed.OnProgress = func(Progress) bool { return true }
	viaCallback, err := Synthesize(m, seed.Clone(), observed, testRng(521))
	if err != nil {
		t.Fatal(err)
	}
	if viaCallback.Stats.FinalScore != plain.Stats.FinalScore {
		t.Errorf("OnProgress path FinalScore = %v, plain path = %v",
			viaCallback.Stats.FinalScore, plain.Stats.FinalScore)
	}
}

// TestChainChunkingMatchesRun pins that the loop's stops never perturb
// a single chain: a fit reporting every 100 steps returns the Stats and
// edge list of one Runner.Run over all its steps, on a runner anchored
// as newFit anchors it.
func TestChainChunkingMatchesRun(t *testing.T) {
	m, seed := fixtureMeasurements(t, 60, []string{"tbi"}, 0)
	cfg := Config{Eps: m.Eps, Workloads: []string{"tbi"}, Pow: 500, Steps: 700, ProgressEvery: 100}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f, err := newFit(m, seed.Clone(), cfg, cfg.Workloads, nil, testRng(560))
	if err != nil {
		t.Fatal(err)
	}
	want := f.runner.Run(cfg.Steps)
	stops := 0
	cfg.OnProgress = func(Progress) bool { stops++; return true }
	res, err := Synthesize(m, seed.Clone(), cfg, testRng(560))
	if err != nil {
		t.Fatal(err)
	}
	if stops != cfg.Steps/cfg.ProgressEvery {
		t.Errorf("%d progress stops, want %d", stops, cfg.Steps/cfg.ProgressEvery)
	}
	if res.Stats != want {
		t.Errorf("chunked fit stats %+v != one Run's %+v", res.Stats, want)
	}
	sameEdges(t, "chunked fit vs one Run", edgeListOf(res.Synthetic), edgeListOf(f.runner.State().Graph()))
}

func edgeListOf(g *graph.Graph) []graph.Edge { return g.EdgeList() }

func sameEdges(t *testing.T, label string, a, b []graph.Edge) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: edge counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: edge lists diverge at %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestChainDeterminism is the acceptance table: (a) a fixed-seed fit
// reproduces the same synthetic edge list and score, and is
// trace-identical chunked by OnProgress or not, and (b) four chains
// (fits) walking at once against one *Measurements each reproduce their
// solo run bit for bit: a fit writes nothing into the measurements, so
// chains sharing them — a caller keeping the best of K — cannot perturb
// each other. Each row starts from its master seed (the rows are named
// after the executors the table once ran on). Run under -race this also
// exercises the shared measurements.
func TestChainDeterminism(t *testing.T) {
	m, seed := fixtureMeasurements(t, 70, []string{"tbi"}, 0)
	cases := []struct {
		name   string
		seed   int64 // the master rng's
		chains int
	}{
		{"serial/1chain", 530, 1},
		{"engine2/1chain", 1530, 1},
		{"serial/4chains", 530, 4},
		{"engine2/4chains", 1530, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(seedOffset int64, extra func(*Config)) *Result {
				cfg := Config{Eps: m.Eps, Workloads: []string{"tbi"}, Pow: 500, Steps: 900}
				if extra != nil {
					extra(&cfg)
				}
				res, err := Synthesize(m, seed.Clone(), cfg, testRng(tc.seed+seedOffset))
				if err != nil {
					t.Error(err)
					return nil
				}
				return res
			}
			if tc.chains == 1 {
				r1, r2 := run(0, nil), run(0, nil)
				sameEdges(t, "repeat", edgeListOf(r1.Synthetic), edgeListOf(r2.Synthetic))
				if r1.Stats != r2.Stats {
					t.Errorf("identical runs differ: %+v vs %+v", r1.Stats, r2.Stats)
				}
				chunked := run(0, func(c *Config) {
					c.ProgressEvery = 97
					c.OnProgress = func(Progress) bool { return true }
				})
				sameEdges(t, "chunked", edgeListOf(r1.Synthetic), edgeListOf(chunked.Synthetic))
				if r1.Stats != chunked.Stats {
					t.Errorf("chunked stats %+v != unchunked %+v", chunked.Stats, r1.Stats)
				}
				return
			}
			together := make([]*Result, tc.chains)
			var wg sync.WaitGroup
			for i := range together {
				wg.Add(1)
				go func() {
					defer wg.Done()
					together[i] = run(int64(i), nil)
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i, r := range together {
				solo := run(int64(i), nil)
				sameEdges(t, "together vs solo", edgeListOf(r.Synthetic), edgeListOf(solo.Synthetic))
				if r.Stats != solo.Stats || math.Float64bits(r.Stats.FinalScore) != math.Float64bits(solo.Stats.FinalScore) {
					t.Errorf("chain %d: %+v walking beside three others, %+v alone", i, r.Stats, solo.Stats)
				}
			}
		})
	}
}

// TestFitCancellation stops a fit from OnProgress at its second stop: the
// chain halts there, and the result reports the cancellation.
func TestFitCancellation(t *testing.T) {
	m, seed := fixtureMeasurements(t, 60, []string{"tbi"}, 0)
	rounds := 0
	cfg := Config{
		Eps:           m.Eps,
		Workloads:     []string{"tbi"},
		Pow:           200,
		Steps:         1000,
		ProgressEvery: 100,
		OnProgress: func(p Progress) bool {
			rounds++
			return rounds < 2
		},
	}
	res, err := Synthesize(m, seed.Clone(), cfg, testRng(540))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("run not reported cancelled")
	}
	if res.Stats.Steps != 200 {
		t.Errorf("ran %d steps, want 200 (2 stops of 100)", res.Stats.Steps)
	}
}

// TestFitReportsOperators pins the executor profile's way out of a fit:
// every progress stop and the Result carry the chain's, node by node
// in scheduling order, counted from the chain's last anchor — the input
// ran once for the load and at most once per proposal, counters only
// grow between stops, and the joins TbI is made of index records.
func TestFitReportsOperators(t *testing.T) {
	m, seed := fixtureMeasurements(t, 60, []string{"tbi"}, 0)
	cfg := Config{Eps: m.Eps, Workloads: []string{"tbi"}, Pow: 100, Steps: 256, ProgressEvery: 64}
	var stops [][]OperatorProfile
	cfg.OnProgress = func(p Progress) bool { stops = append(stops, p.Operators); return true }
	res, err := Synthesize(m, seed.Clone(), cfg, testRng(511))
	if err != nil {
		t.Fatal(err)
	}
	if len(stops) < 4 {
		t.Fatalf("%d progress stops, want one per 64 steps", len(stops))
	}
	prev := stops[0]
	for _, next := range append(stops[1:], res.Operators) {
		if len(next) != len(prev) {
			t.Fatalf("profile of %d nodes after one of %d", len(next), len(prev))
		}
		for i := range next {
			if next[i].Index != i || next[i].Op != prev[i].Op || next[i].Rounds < prev[i].Rounds || next[i].In < prev[i].In || next[i].Out < prev[i].Out {
				t.Fatalf("node %d went from %+v to %+v", i, prev[i], next[i])
			}
		}
		prev = next
	}
	if in := res.Operators[0]; in.Op != "input" || in.Rounds < 2 || in.Rounds > uint64(1+cfg.Steps) || in.In != in.Out {
		t.Errorf("input node %+v: want 1 load + up to %d proposals, out == in", in, cfg.Steps)
	}
	joins := 0
	for _, op := range res.Operators {
		if op.Op == "join" && op.State > 0 && op.In > 0 {
			joins++
		}
	}
	if joins == 0 {
		t.Errorf("no join with state and input among %+v", res.Operators)
	}
}
