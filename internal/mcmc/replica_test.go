package mcmc

import (
	"math"
	"math/rand"
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

// runLadder drives runners the way a fit's loop does: rounds of every
// steps on each chain, each round closed by one Exchange at alternating
// parity. goOn, when non-nil, is asked after each round whether to go
// on, and the run stops at its first false. It returns the per-chain
// statistics and the ladder.
func runLadder(runners []*Runner, pows []float64, every, rounds int, rng *rand.Rand, goOn func(round int, stats []ChainStats) bool) ([]ChainStats, []int) {
	stats := make([]ChainStats, len(runners))
	ladder := make([]int, len(runners))
	for i := range stats {
		stats[i] = ChainStats{Chain: i, Pow: pows[i]}
		ladder[i] = i
	}
	for round := 1; round <= rounds; round++ {
		for i, r := range runners {
			st := r.Run(every)
			stats[i].Steps += st.Steps
			stats[i].Accepted += st.Accepted
			stats[i].Rejected += st.Rejected
			stats[i].Invalid += st.Invalid
			stats[i].FinalScore = st.FinalScore
		}
		Exchange(runners, stats, ladder, (round-1)%2, rng)
		if goOn != nil && !goOn(round, stats) {
			break
		}
	}
	return stats, ladder
}

func edgeLists(runners []*Runner) [][]graph.Edge {
	edges := make([][]graph.Edge, len(runners))
	for i, r := range runners {
		edges[i] = r.State().Graph().EdgeList()
	}
	return edges
}

func sameEdgeLists(t *testing.T, a, b [][]graph.Edge) {
	t.Helper()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("chain %d edge counts differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("chain %d edge lists diverge at %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestRunReplicasDeterministic runs three chains with swap rounds twice
// from the same seeds: the stats, the ladder and every chain's edge list
// must agree.
func TestRunReplicasDeterministic(t *testing.T) {
	pows := []float64{800, 400, 200}
	run := func() ([]ChainStats, []int, [][]graph.Edge) {
		runners := replicaFixture(t, 3, pows, 30)
		stats, ladder := runLadder(runners, pows, 50, 12, testRng(99), nil)
		for i, c := range stats {
			if c.Steps != 600 {
				t.Fatalf("chain %d ran %d steps, want 600", i, c.Steps)
			}
		}
		return stats, ladder, edgeLists(runners)
	}
	s1, l1, e1 := run()
	s2, l2, e2 := run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("chain %d stats differ: %+v vs %+v", i, s1[i], s2[i])
		}
		if l1[i] != l2[i] {
			t.Errorf("ladders differ between identical runs: %v vs %v", l1, l2)
		}
	}
	sameEdgeLists(t, e1, e2)
}

// TestRunReplicasLadderInvariants runs four chains between alternating
// swap rounds, as a fit's loop does, and checks what Exchange keeps:
// swaps permute the pow assignments, the ladder names the chain holding
// each rung in descending pow order, and each round proposes exactly the
// adjacent pairs of its parity.
func TestRunReplicasLadderInvariants(t *testing.T) {
	pows := []float64{1000, 250, 60, 15}
	runners := replicaFixture(t, 4, pows, 40)
	const rounds = 15
	stats, ladder := runLadder(runners, pows, 60, rounds, testRng(7), nil)
	pairs := 0
	for round := 0; round < rounds; round++ {
		pairs += (len(ladder) - round%2) / 2
	}
	proposed, accepted := 0, 0
	for i, c := range stats {
		proposed += c.SwapsProposed
		accepted += c.SwapsAccepted
		if c.SwapsAccepted > c.SwapsProposed {
			t.Errorf("chain %d accepted %d of %d proposed swaps", c.Chain, c.SwapsAccepted, c.SwapsProposed)
		}
		if runners[i].cfg.Pow != c.Pow {
			t.Errorf("chain %d walks at pow %v, its stats say %v", i, runners[i].cfg.Pow, c.Pow)
		}
	}
	for k, c := range ladder {
		if stats[c].Pow != pows[k] {
			t.Errorf("rung %d is held by chain %d at pow %v, want %v (ladder %v)", k, c, stats[c].Pow, pows[k], ladder)
		}
	}
	if proposed != 2*pairs {
		t.Errorf("chains took part in %d proposals, want two per proposed pair (%d pairs)", proposed, pairs)
	}
	if accepted == 0 {
		t.Error("no swap was ever accepted")
	}
}

// TestRunReplicasZeroStepsReportsScore pins that a zero-step Run reports
// the chain's current score, not 0, so a swap round at zero steps
// compares real scores.
func TestRunReplicasZeroStepsReportsScore(t *testing.T) {
	pows := []float64{100, 50}
	runners := replicaFixture(t, 2, pows, 50)
	want := runners[0].Score()
	if want == 0 {
		t.Fatal("fixture has zero initial score; test needs a nonzero one")
	}
	stats, _ := runLadder(runners, pows, 0, 1, testRng(8), nil)
	for i, c := range stats {
		if math.Abs(c.FinalScore-want) > 1e-9 {
			t.Errorf("chain %d zero-step FinalScore = %v, want current score %v", i, c.FinalScore, want)
		}
	}
}

// TestRunReplicasCancellation stops two chains after the third of ten
// swap rounds: each chain has run exactly three rounds, and the stopped
// run's stats and edge lists are those an unstopped run passes through
// at its third round.
func TestRunReplicasCancellation(t *testing.T) {
	pows := []float64{100, 50}
	runners := replicaFixture(t, 2, pows, 60)
	stats, _ := runLadder(runners, pows, 100, 10, testRng(9), func(round int, _ []ChainStats) bool {
		return round < 3
	})
	for i, c := range stats {
		if c.Steps != 300 {
			t.Errorf("chain %d stopped after %d steps, want 300 (3 rounds of 100)", i, c.Steps)
		}
	}

	full := replicaFixture(t, 2, pows, 60)
	var atThree []ChainStats
	var edgesAtThree [][]graph.Edge
	runLadder(full, pows, 100, 10, testRng(9), func(round int, s []ChainStats) bool {
		if round == 3 {
			atThree = append([]ChainStats(nil), s...)
			edgesAtThree = edgeLists(full)
		}
		return true
	})
	for i := range stats {
		if stats[i] != atThree[i] {
			t.Errorf("chain %d stopped stats %+v, unstopped run at round 3 %+v", i, stats[i], atThree[i])
		}
	}
	sameEdgeLists(t, edgeLists(runners), edgesAtThree)
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
	Exchange(runners, stats, ladder, 0, testRng(1))
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
