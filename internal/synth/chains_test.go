package synth

import (
	"math"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
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

func TestChainConfigValidate(t *testing.T) {
	bad := []Config{
		{Eps: 1, Workloads: []string{"tbi"}, Chains: -1},
		{Eps: 1, Workloads: []string{"tbi"}, SwapEvery: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	good := Config{Eps: 1, Workloads: []string{"tbi"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Chains != 1 || good.SwapEvery != 1024 || good.ProgressEvery != 1024 {
		t.Errorf("defaults not applied: %+v", good)
	}
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

// TestChainDeterminism is the acceptance table: (a) Chains=1 is
// trace-identical to the default-config fit, chunked by OnProgress or
// not, and (b) fixed-seed multi-chain runs reproduce the
// same synthetic edge list with scores equal to 1e-9 relative, from
// each row's master seed (the rows are named after the executors the
// table once ran on). Run under -race this also exercises the chain
// goroutines.
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
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(extra func(*Config)) *Result {
				cfg := Config{
					Eps:       m.Eps,
					Workloads: []string{"tbi"},
					Pow:       500,
					Steps:     900,
					Chains:    tc.chains,
					SwapEvery: 128,
				}
				if extra != nil {
					extra(&cfg)
				}
				res, err := Synthesize(m, seed.Clone(), cfg, testRng(tc.seed))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			r1, r2 := run(nil), run(nil)
			sameEdges(t, "repeat", edgeListOf(r1.Synthetic), edgeListOf(r2.Synthetic))
			if diff := math.Abs(r1.Stats.FinalScore - r2.Stats.FinalScore); diff > 1e-9*(1+math.Abs(r1.Stats.FinalScore)) {
				t.Errorf("scores differ between identical runs: %v vs %v", r1.Stats.FinalScore, r2.Stats.FinalScore)
			}
			if tc.chains == 1 {
				// (a) The explicit Chains=1 run must be trace-identical to
				// the default config, chunked by OnProgress or not.
				legacy := run(func(c *Config) { c.Chains = 0; c.SwapEvery = 0 })
				sameEdges(t, "legacy", edgeListOf(r1.Synthetic), edgeListOf(legacy.Synthetic))
				if r1.Stats != legacy.Stats {
					t.Errorf("Chains=1 stats %+v != default-path stats %+v", r1.Stats, legacy.Stats)
				}
				chunked := run(func(c *Config) {
					c.ProgressEvery = 97
					c.OnProgress = func(Progress) bool { return true }
				})
				sameEdges(t, "chunked", edgeListOf(r1.Synthetic), edgeListOf(chunked.Synthetic))
			} else {
				// (b) Multi-chain bookkeeping: per-chain stats present, the
				// reported best chain backs Result.Stats, and the pow
				// multiset is the configured geometric ladder.
				if len(r1.Chains) != tc.chains {
					t.Fatalf("Result.Chains has %d entries, want %d", len(r1.Chains), tc.chains)
				}
				if r1.Stats != r1.Chains[r1.BestChain].Stats {
					t.Errorf("Result.Stats %+v != best chain stats %+v", r1.Stats, r1.Chains[r1.BestChain].Stats)
				}
				pows := make(map[float64]int)
				for _, c := range r1.Chains {
					pows[c.Pow]++
					if best := r1.Chains[r1.BestChain].FinalScore; c.FinalScore < best {
						t.Errorf("chain %d score %v beats reported best %v", c.Chain, c.FinalScore, best)
					}
				}
				for i := 0; i < tc.chains; i++ {
					want := 500 / math.Pow(2, float64(i))
					if pows[want] != 1 {
						t.Errorf("ladder rung %v held by %d chains, want 1", want, pows[want])
					}
				}
			}
		})
	}
}

// TestMultiChainCancellation stops a 3-chain run from OnProgress and
// checks every chain halted at the same barrier.
func TestMultiChainCancellation(t *testing.T) {
	m, seed := fixtureMeasurements(t, 60, []string{"tbi"}, 0)
	rounds := 0
	cfg := Config{
		Eps:       m.Eps,
		Workloads: []string{"tbi"},
		Pow:       200,
		Steps:     1000,
		Chains:    3,
		SwapEvery: 100,
		OnProgress: func(p Progress) bool {
			rounds++
			if len(p.Chains) != 3 {
				t.Errorf("progress carries %d chains, want 3", len(p.Chains))
			}
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
	for _, c := range res.Chains {
		if c.Steps != 200 {
			t.Errorf("chain %d ran %d steps, want 200 (2 rounds of 100)", c.Chain, c.Steps)
		}
	}
}

// TestMultiChainImprovesFit sanity-checks that replica exchange still
// fits: the best chain's final score must beat the common initial score.
func TestMultiChainImprovesFit(t *testing.T) {
	m, seed := fixtureMeasurements(t, 80, []string{"tbi"}, 0)
	initial, err := Synthesize(m, seed.Clone(),
		Config{Eps: m.Eps, Workloads: []string{"tbi"}, Pow: 500, Steps: 0}, testRng(550))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(m, seed.Clone(), Config{
		Eps: m.Eps, Workloads: []string{"tbi"}, Pow: 500,
		Steps: 4000, Chains: 3, SwapEvery: 250,
	}, testRng(551))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalScore >= initial.Stats.FinalScore {
		t.Errorf("best chain score %v did not improve on initial %v",
			res.Stats.FinalScore, initial.Stats.FinalScore)
	}
	if res.Stats.Accepted == 0 {
		t.Error("best chain accepted nothing")
	}
	var _ mcmc.Stats = res.Stats
}

// TestFitReportsOperators pins the executor profile's way out of a fit:
// every progress stop and the Result carry the best chain's, node by node
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
