package workload_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/workload"
)

// fuseTrace is one recorded MCMC walk: the per-step decision stream
// ('A'ccepted, 'R'ejected, 'I'nvalid), the per-step scores, the final
// edge list, and the propagation counters.
type fuseTrace struct {
	decisions   string
	scores      []float64
	edges       string
	inputPushes uint64 // root input Push calls during the walk
	memoPushes  uint64 // fragment batch deliveries during the walk
	stats       mcmc.Stats
}

// runFuseTrace attaches measured fits to a fused or unfused plan and
// drives a 1500-step transactional MCMC walk from walkSeed, recording
// everything comparable.
func runFuseTrace(t *testing.T, fits []workload.Measured, walkSeed int64, fuse bool, steps int) fuseTrace {
	t.Helper()
	const eps = 1.0
	// Walk from a random start toward the measurements, like real
	// synthesis: proposals then improve the fit often enough to exercise
	// the Commit path, not just Abort.
	g, err := graph.ErdosRenyi(36, 100, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ := fusePlan(t, fits, fuse, eps, 23)

	// NewGraphState pushes the initial edge dataset itself; pushing it
	// again here would hold every edge at weight 2 in the dataflow while
	// swaps move +/-1, stranding removed edges at weight 1 — state then
	// grows monotonically with the walk instead of staying degree-bounded.
	state := mcmc.NewGraphState(g, p.Input())
	counter := p.Input()
	basePushes := counter.Pushes()
	baseMemo := p.Fusion().Pushes()

	var decisions strings.Builder
	var scores []float64
	runner, err := mcmc.NewRunner(state, p.Scorer(), mcmc.Config{Pow: 0.05},
		rand.New(rand.NewSource(walkSeed)))
	if err != nil {
		t.Fatal(err)
	}
	// Run step-by-step so the decision stream distinguishes rejected
	// from invalid (Stats only aggregates them).
	st := mcmc.Stats{Steps: steps}
	for i := 0; i < steps; i++ {
		before := counter.Pushes()
		accepted := runner.Step()
		switch {
		case accepted:
			st.Accepted++
			decisions.WriteByte('A')
		case counter.Pushes() != before:
			st.Rejected++
			decisions.WriteByte('R')
		default:
			st.Invalid++
			decisions.WriteByte('I')
		}
		scores = append(scores, runner.Score())
	}
	st.FinalScore = runner.Score()

	final := state.Graph().EdgeList()
	sort.Slice(final, func(i, j int) bool {
		if final[i].Src != final[j].Src {
			return final[i].Src < final[j].Src
		}
		return final[i].Dst < final[j].Dst
	})
	var sb strings.Builder
	for _, e := range final {
		fmt.Fprintf(&sb, "%d-%d;", e.Src, e.Dst)
	}
	return fuseTrace{
		decisions:   decisions.String(),
		scores:      scores,
		edges:       sb.String(),
		inputPushes: counter.Pushes() - basePushes,
		memoPushes:  p.Fusion().Pushes() - baseMemo,
		stats:       st,
	}
}

// TestFusedTraceMatchesUnfused drives the same seeded 1500-step MCMC
// walk (one per row, each from its own seed: the row names are the
// executor layouts the test once ran on) through a fused plan and a per-workload-pipeline plan over
// tbi+tbd+jdd+wedges and requires byte-identical decision streams,
// byte-identical final edge lists, step scores within 1e-9, and the
// tentpole's cost metric: each proposal costs exactly one propagation
// through the root input, and the fused DAG delivers strictly fewer
// fragment batches than the sum of the unfused pipelines.
func TestFusedTraceMatchesUnfused(t *testing.T) {
	const steps = 1500
	names := []string{"tbi", "tbd", "jdd", "wedges"}
	fits := measureFits(t, testGraph(t), names, 2, 1.0, 11)
	for _, l := range []struct {
		name string
		seed int64
	}{
		{"serial", 99},
		{"engine-3", 1099},
	} {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			fused := runFuseTrace(t, fits, l.seed, true, steps)
			plain := runFuseTrace(t, fits, l.seed, false, steps)

			if fused.decisions != plain.decisions {
				i := 0
				for i < len(fused.decisions) && fused.decisions[i] == plain.decisions[i] {
					i++
				}
				t.Fatalf("decision streams diverge at step %d: fused %c, unfused %c (fused stats %+v, unfused %+v)",
					i, fused.decisions[i], plain.decisions[i], fused.stats, plain.stats)
			}
			if fused.edges != plain.edges {
				t.Fatalf("final edge lists differ after identical decision streams")
			}
			for i := range fused.scores {
				if !scoresClose(fused.scores[i], plain.scores[i]) {
					t.Fatalf("step %d: fused score %v, unfused %v", i, fused.scores[i], plain.scores[i])
				}
			}

			// One proposal, one propagation: the txn protocol pushes each
			// valid proposal's differences exactly once, on both plan forms.
			valid := uint64(fused.stats.Accepted + fused.stats.Rejected)
			if fused.inputPushes != valid {
				t.Errorf("fused plan: %d input pushes for %d valid proposals", fused.inputPushes, valid)
			}
			if plain.inputPushes != valid {
				t.Errorf("unfused plan: %d input pushes for %d valid proposals", plain.inputPushes, valid)
			}
			// The acceptance criterion: per-proposal fragment work scales
			// with the merged DAG, not with workload count. tbi, tbd, and
			// wedges all consume the paths join, so fusing must strictly
			// reduce delivered fragment batches for the same walk.
			if fused.memoPushes >= plain.memoPushes {
				t.Errorf("fused walk delivered %d fragment batches, unfused %d; fusion must propagate less",
					fused.memoPushes, plain.memoPushes)
			}
			t.Logf("%s: %d steps (%d accepted), input pushes %d, fragment batches fused=%d unfused=%d (%.2fx)",
				l.name, steps, fused.stats.Accepted, fused.inputPushes,
				fused.memoPushes, plain.memoPushes, float64(plain.memoPushes)/float64(fused.memoPushes))
		})
	}
}

// walkHotPlan builds what the benchmark's walk-hot workload runs — a
// HolmeKim(400,3) graph with the fused tbi,tbd,jdd,wedges
// plan at bucket 5 — loaded and ready to walk.
func walkHotPlan(tb testing.TB) (*workload.Plan, *mcmc.GraphState) {
	tb.Helper()
	g, err := graph.HolmeKim(400, 3, 0.5, rand.New(rand.NewSource(3)))
	if err != nil {
		tb.Fatal(err)
	}
	fits := measureFits(tb, g, []string{"tbi", "tbd", "jdd", "wedges"}, 5, 0.1, 11)
	p, _, _ := fusePlan(tb, fits, true, 0.1, 23)
	return p, mcmc.NewGraphState(g, p.Input())
}

// TestWalkHotDeliversOncePerFragment pins what made the round scheduler
// the one executor. A round runs every node once, whatever number of
// paths lead to it, so a fragment's output delivers at most
// one batch per proposal: deliveries per proposal are bounded by the
// live fragments (8 on this plan; the walk measures about 4.8, because a
// swap's differences die out before they reach every fragment).
// Delivering each emission as it is made — depth-first, the retired
// reference engine's way — runs a two-input node once per incoming edge
// whenever its inputs share an ancestor, and tbd stacks four such joins:
// the same plan read 14.3.
func TestWalkHotDeliversOncePerFragment(t *testing.T) {
	p, state := walkHotPlan(t)
	runner, err := mcmc.NewRunner(state, p.Scorer(), mcmc.Config{Pow: 0.1}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	fragments := p.Fusion().Stats().Fragments
	if fragments != 8 {
		t.Fatalf("walk-hot's fused plan has %d fragments, want 8", fragments)
	}
	proposals, deliveries := p.Input().Pushes(), p.Fusion().Pushes()
	runner.Run(1000)
	proposals, deliveries = p.Input().Pushes()-proposals, p.Fusion().Pushes()-deliveries
	perProposal := float64(deliveries) / float64(proposals)
	t.Logf("%d proposals, %d fragment-output deliveries: %.2f per proposal over %d fragments",
		proposals, deliveries, perProposal, fragments)
	if proposals < 500 {
		t.Fatalf("only %d valid proposals in 1000 steps; fixture too degenerate", proposals)
	}
	if perProposal > float64(fragments) {
		t.Errorf("%.2f deliveries per proposal exceed the %d live fragments: a node ran more than once in a round",
			perProposal, fragments)
	}
}
