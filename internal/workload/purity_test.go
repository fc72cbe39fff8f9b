package workload_test

import (
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/queries"
	"wpinq/internal/workload"
)

// TestScoreIsAFunctionOfTheGraph pins the contract Phase 2 rests on: the
// score a plan maintains is the score of the graph it currently holds and
// of nothing else — not of the proposals it saw and aborted, nor of the
// order it saw them in. For every registered workload plus one defined
// from a literal, and for each of two walks (rows named after the shard
// counts the test once ran at), a walk from a random graph toward a release of a clustered one (so most
// proposals give weight to records the release never contained) makes
// speculative proposals, a coin standing in for the pow-1e4 acceptance
// test commits or aborts each, and after every one of them:
//
//   - the maintained score equals, to 1e-9 relative, the score of the
//     current edge list loaded into a fresh plan attached to the same
//     release;
//   - an abort has put back the exact bits the score had before the
//     proposal;
//   - the sink holds the released records and the never-released records
//     the graph gives weight, and no other: nothing an aborted or
//     overwritten proposal touched stays behind;
//
// and at the end the residual report's bins are the terms of that score.
func TestScoreIsAFunctionOfTheGraph(t *testing.T) {
	const (
		eps       = 1.0
		proposals = 400
	)
	sbd := workload.Define(workload.Workload{Name: "sbd"},
		workload.Builders[queries.DegQuad]{Expr: func(int) queries.Expr[queries.DegQuad] { return queries.SbD() }})
	truth, err := graph.HolmeKim(32, 2, 0.7, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	start, err := graph.ErdosRenyi(32, truth.NumEdges(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(workload.All(), sbd) {
		bucket := 0
		if w.Bucketed {
			bucket = 2
		}
		src := budget.NewSource("edges", float64(w.Uses)*eps*(1+1e-9))
		fit, err := w.Measure(core.FromDataset(graph.SymmetricEdges(truth), src), bucket, eps, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := fit.Entries()
		if err != nil {
			t.Fatal(err)
		}
		released := make(map[string]bool, len(entries))
		for _, e := range entries {
			released[string(e.Key)] = true
		}
		for _, row := range []struct {
			name string
			seed int64 // of the walk
		}{
			{"shards=1", 13},
			{"shards=4", 1013},
		} {
			t.Run(w.Name+"/"+row.name, func(t *testing.T) {
				t.Parallel()
				attached := func() *workload.Plan {
					p := workload.NewPlan()
					if err := fit.Attach(p, eps); err != nil {
						t.Fatal(err)
					}
					return p
				}
				p := attached()
				weights := w.Collect(p, bucket)
				state := mcmc.NewGraphState(start, p.Input())
				scorer := p.Scorer()

				derived := 0 // never-released records held, summed over the steps
				check := func(step int, what string) {
					t.Helper()
					fresh := attached()
					if _, err := mcmc.NewGraphStateFromEdges(state.Edges(), nil, fresh.Input()); err != nil {
						t.Fatal(err)
					}
					got, want := scorer.Score(), fresh.Scorer().Score()
					if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
						t.Fatalf("step %d (%s): maintained score %v, the same graph loaded from scratch scores %v", step, what, got, want)
					}
					current, err := weights.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					live := 0
					for key := range current {
						if !released[key] {
							live++
						}
					}
					if bins := scorer.Residuals(0)[0].Bins; bins != len(released)+live {
						t.Fatalf("step %d (%s): the sink holds %d records, want the %d released + the %d others the graph gives weight",
							step, what, bins, len(released), live)
					}
					derived += live
				}
				check(-1, "load")

				rng := rand.New(rand.NewSource(row.seed))
				for step := 0; step < proposals; {
					prop, ok := state.Propose(rng)
					if !ok {
						continue
					}
					before := math.Float64bits(scorer.Score())
					state.Speculate(prop)
					if rng.Intn(2) == 0 {
						state.Commit()
						check(step, "commit")
					} else {
						state.Abort(prop)
						if after := math.Float64bits(scorer.Score()); after != before {
							t.Fatalf("step %d: abort left score bits %x, the proposal began at %x", step, after, before)
						}
						check(step, "abort")
					}
					step++
				}
				if derived == 0 && len(released) > 1 {
					t.Error("no step held a never-released record: the test is vacuous")
				}
				// The residual report says what the score means: one bin per
				// held record, largest term first, the terms summing to L1.
				res := scorer.Residuals(scorer.Residuals(0)[0].Bins)[0]
				var sum float64
				for i, b := range res.Worst {
					sum += b.Residual
					if i > 0 && b.Residual > res.Worst[i-1].Residual {
						t.Fatalf("bin %d (%v) outranks bin %d (%v)", i, b.Residual, i-1, res.Worst[i-1].Residual)
					}
				}
				if len(res.Worst) != res.Bins || math.Abs(sum-res.L1) > 1e-9*math.Max(1, math.Abs(res.L1)) {
					t.Errorf("%d bins of %d summing to %v, L1 is %v", len(res.Worst), res.Bins, sum, res.L1)
				}
			})
		}
	}
}
