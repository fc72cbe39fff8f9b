package mcmc

import (
	"math"
	"testing"

	"wpinq/internal/graph"
)

func TestAcceptRate(t *testing.T) {
	cases := []struct {
		s    Stats
		want float64
	}{
		{Stats{}, 0}, // zero proposals: defined as 0, no +1 fudge needed
		{Stats{Steps: 4, Accepted: 1}, 0.25},
		{Stats{Steps: 10, Accepted: 5, Rejected: 3, Invalid: 2}, 0.5},
	}
	for _, c := range cases {
		if got := c.s.AcceptRate(); got != c.want {
			t.Errorf("AcceptRate(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
}

// replicaFixture builds n independent TbI-scoring runners over clones of
// the same graph, each with its own pipeline and rng, at the given pows.
func replicaFixture(t *testing.T, n int, pows []float64, seedBase int64) []*Runner {
	t.Helper()
	rng := testRng(seedBase)
	g, err := graph.ErdosRenyi(50, 140, rng)
	if err != nil {
		t.Fatal(err)
	}
	runners := make([]*Runner, n)
	for i := 0; i < n; i++ {
		state, scorer := buildTbIFixture(g, 45.0, 0.5)
		r, err := NewRunner(state, scorer, Config{Pow: pows[i]}, testRng(seedBase+1+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	return runners
}

func TestRunReplicasValidation(t *testing.T) {
	if _, err := RunDurable(nil, DurableConfig{Steps: 10}, testRng(1)); err == nil {
		t.Error("empty runner list accepted")
	}
	runners := replicaFixture(t, 2, []float64{100, 50}, 10)
	if _, err := RunDurable(runners, DurableConfig{Steps: 10}, nil); err == nil {
		t.Error("nil swapRng accepted for multi-chain run")
	}
	if _, err := RunDurable(runners, DurableConfig{Steps: -1}, testRng(2)); err == nil {
		t.Error("negative Steps accepted")
	}
	if _, err := RunDurable([]*Runner{runners[0], nil}, DurableConfig{Steps: 10}, testRng(3)); err == nil {
		t.Error("nil runner accepted")
	}
}

func TestRunReplicasSingleChainMatchesRun(t *testing.T) {
	// One chain through the orchestrator must be the plain Run trace:
	// same rng consumption, same stats, same final edge list.
	a := replicaFixture(t, 1, []float64{500}, 20)[0]
	b := replicaFixture(t, 1, []float64{500}, 20)[0]
	res, err := RunDurable([]*Runner{a}, DurableConfig{Steps: 700, SwapEvery: 100, RoundEvery: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Run(700)
	if res.Chains[0].Stats != want {
		t.Errorf("orchestrated stats %+v != plain run %+v", res.Chains[0].Stats, want)
	}
	ea, eb := a.State().Graph().EdgeList(), b.State().Graph().EdgeList()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge lists diverge at %d: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRunReplicasDeterministic(t *testing.T) {
	pows := []float64{800, 400, 200}
	run := func() (ReplicaResult, [][]graph.Edge) {
		runners := replicaFixture(t, 3, pows, 30)
		res, err := RunDurable(runners, DurableConfig{Steps: 600, SwapEvery: 50, RoundEvery: 50}, testRng(99))
		if err != nil {
			t.Fatal(err)
		}
		edges := make([][]graph.Edge, len(runners))
		for i, r := range runners {
			if res.Chains[i].Steps != 600 {
				t.Fatalf("chain %d ran %d steps, want 600", i, res.Chains[i].Steps)
			}
			edges[i] = r.State().Graph().EdgeList()
		}
		return res, edges
	}
	r1, e1 := run()
	r2, e2 := run()
	if r1.Best != r2.Best {
		t.Fatalf("best chain differs between identical runs: %d vs %d", r1.Best, r2.Best)
	}
	for i := range r1.Chains {
		if r1.Chains[i] != r2.Chains[i] {
			t.Errorf("chain %d stats differ: %+v vs %+v", i, r1.Chains[i], r2.Chains[i])
		}
		for j := range e1[i] {
			if e1[i][j] != e2[i][j] {
				t.Fatalf("chain %d edge lists diverge at %d: %v vs %v", i, j, e1[i][j], e2[i][j])
			}
		}
	}
}

func TestRunReplicasLadderInvariants(t *testing.T) {
	pows := []float64{1000, 250, 60, 15}
	runners := replicaFixture(t, 4, pows, 40)
	res, err := RunDurable(runners, DurableConfig{Steps: 900, SwapEvery: 60, RoundEvery: 60}, testRng(7))
	if err != nil {
		t.Fatal(err)
	}
	// Swaps permute the ladder; the multiset of pow assignments is
	// invariant.
	got := make(map[float64]int)
	proposed := 0
	for _, c := range res.Chains {
		got[c.Pow]++
		proposed += c.SwapsProposed
		if c.SwapsAccepted > c.SwapsProposed {
			t.Errorf("chain %d accepted %d of %d proposed swaps", c.Chain, c.SwapsAccepted, c.SwapsProposed)
		}
	}
	for _, p := range pows {
		if got[p] != 1 {
			t.Errorf("pow %v held by %d chains after swaps, want exactly 1", p, got[p])
		}
	}
	if proposed == 0 {
		t.Error("no swaps were ever proposed")
	}
	for i, c := range res.Chains {
		if c.FinalScore < res.Chains[res.Best].FinalScore {
			t.Errorf("chain %d score %v beats reported best %v", i, c.FinalScore, res.Chains[res.Best].FinalScore)
		}
	}
}

func TestRunReplicasZeroStepsReportsScore(t *testing.T) {
	runners := replicaFixture(t, 2, []float64{100, 50}, 50)
	want := runners[0].Score()
	if want == 0 {
		t.Fatal("fixture has zero initial score; test needs a nonzero one")
	}
	res, err := RunDurable(runners, DurableConfig{Steps: 0, SwapEvery: 10, RoundEvery: 10}, testRng(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Chains {
		if math.Abs(c.FinalScore-want) > 1e-9 {
			t.Errorf("chain %d zero-step FinalScore = %v, want current score %v", i, c.FinalScore, want)
		}
	}
}

func TestRunReplicasCancellation(t *testing.T) {
	runners := replicaFixture(t, 2, []float64{100, 50}, 60)
	rounds := 0
	res, err := RunDurable(runners, DurableConfig{
		Steps:      1000,
		SwapEvery:  100,
		RoundEvery: 100,
		OnRound: func(done int, chains []ChainStats) bool {
			rounds++
			return rounds < 3
		},
	}, testRng(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("run not reported cancelled")
	}
	if got := res.Chains[0].Steps; got != 300 {
		t.Errorf("cancelled after %d steps, want 300 (3 rounds of 100)", got)
	}
}

func TestExchangeMovesBetterFitToColdChain(t *testing.T) {
	// Two chains where the colder one scores worse: the swap criterion's
	// exponent is positive, so the exchange is forced regardless of the
	// rng draw, and the pow assignments must trade places.
	runners := replicaFixture(t, 2, []float64{100, 10}, 70)
	// Make the colder chain (index 0) fit worse by walking only the
	// hotter one toward the signal.
	runners[1].Run(400)
	if runners[0].Score() <= runners[1].Score() {
		t.Skip("hot chain did not improve past the cold one; fixture seed needs adjusting")
	}
	stats := []ChainStats{{Chain: 0, Pow: 100}, {Chain: 1, Pow: 10}}
	ladder := []int{0, 1}
	exchange(runners, stats, ladder, 0, testRng(1))
	if stats[0].Pow != 10 || stats[1].Pow != 100 {
		t.Errorf("forced swap not applied: pows (%v, %v), want (10, 100)", stats[0].Pow, stats[1].Pow)
	}
	if stats[0].SwapsAccepted != 1 || stats[1].SwapsAccepted != 1 {
		t.Error("accepted swap not counted on both chains")
	}
	if ladder[0] != 1 || ladder[1] != 0 {
		t.Errorf("ladder not permuted: %v", ladder)
	}
}
