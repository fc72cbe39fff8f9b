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

// replicaFixture builds a TbI-scoring runner at pow over a fixed random
// graph, with its own pipeline and an rng seeded from seedBase: two calls
// with the same arguments build replicas of one chain.
func replicaFixture(t *testing.T, pow float64, seedBase int64) *Runner {
	t.Helper()
	g, err := graph.ErdosRenyi(50, 140, testRng(seedBase))
	if err != nil {
		t.Fatal(err)
	}
	state, scorer := buildTbIFixture(g, 45.0, 0.5)
	r, err := NewRunner(state, scorer, Config{Pow: pow}, testRng(seedBase+1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runRounds drives r the way a fit's loop does: rounds of every steps,
// one Run call each. goOn, when non-nil, is asked after each round
// whether to go on, and the run stops at its first false. It returns the
// accumulated statistics.
func runRounds(r *Runner, every, rounds int, goOn func(round int, st Stats) bool) Stats {
	st := Stats{FinalScore: r.Score()}
	for round := 1; round <= rounds; round++ {
		chunk := r.Run(every)
		st.Steps += chunk.Steps
		st.Accepted += chunk.Accepted
		st.Rejected += chunk.Rejected
		st.Invalid += chunk.Invalid
		st.FinalScore = chunk.FinalScore
		if goOn != nil && !goOn(round, st) {
			break
		}
	}
	return st
}

func sameEdgeList(t *testing.T, a, b []graph.Edge) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("edge counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge lists diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRunReplicasDeterministic drives one replica in twelve rounds of 50
// steps and another in one Run of 600: Run draws nothing between calls,
// so the stops a fit's loop makes never perturb the trace, and the two
// agree on every statistic and on the edge list.
func TestRunReplicasDeterministic(t *testing.T) {
	chunked := replicaFixture(t, 800, 30)
	st := runRounds(chunked, 50, 12, nil)
	whole := replicaFixture(t, 800, 30)
	want := whole.Run(600)
	if st != want {
		t.Errorf("twelve rounds of 50 steps: %+v; one Run of 600: %+v", st, want)
	}
	sameEdgeList(t, chunked.State().Graph().EdgeList(), whole.State().Graph().EdgeList())
}

// TestRunReplicasZeroStepsReportsScore pins that a zero-step Run reports
// the chain's current score, not 0, so a stop at zero steps reports a
// real score.
func TestRunReplicasZeroStepsReportsScore(t *testing.T) {
	r := replicaFixture(t, 100, 50)
	want := r.Score()
	if want == 0 {
		t.Fatal("fixture has zero initial score; test needs a nonzero one")
	}
	if got := r.Run(0).FinalScore; math.Abs(got-want) > 1e-9 {
		t.Errorf("zero-step FinalScore = %v, want current score %v", got, want)
	}
}

// TestRunReplicasCancellation stops a replica after the third of ten
// rounds: it has run exactly three rounds, and its stats and edge list
// are those an unstopped replica passes through at its third round.
func TestRunReplicasCancellation(t *testing.T) {
	stopped := replicaFixture(t, 100, 60)
	st := runRounds(stopped, 100, 10, func(round int, _ Stats) bool { return round < 3 })
	if st.Steps != 300 {
		t.Errorf("stopped after %d steps, want 300 (3 rounds of 100)", st.Steps)
	}

	full := replicaFixture(t, 100, 60)
	var atThree Stats
	var edgesAtThree []graph.Edge
	runRounds(full, 100, 10, func(round int, s Stats) bool {
		if round == 3 {
			atThree, edgesAtThree = s, full.State().Graph().EdgeList()
		}
		return true
	})
	if st != atThree {
		t.Errorf("stopped stats %+v, unstopped run at round 3 %+v", st, atThree)
	}
	sameEdgeList(t, stopped.State().Graph().EdgeList(), edgesAtThree)
}
