package workload_test

import (
	"math/rand"
	"runtime"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/workload"
)

// TestPlanInputsAreTransactional pins the wire-through: at every shard
// setting — auto, explicit, and -1, which is one shard — the plan's input
// couples to the sampler and an aborted proposal restores the score
// bit-for-bit, so Phase 2 synthesis scores proposals with one propagation
// per rejected step.
func TestPlanInputsAreTransactional(t *testing.T) {
	for shards, want := range map[int]int{-1: 1, 0: runtime.GOMAXPROCS(0), 1: 1, 3: 3} {
		p := workload.NewPlan(shards)
		if got := p.Engine().Shards(); got != want {
			t.Errorf("NewPlan(%d) runs on %d shards, want %d", shards, got, want)
		}
		w, err := workload.Get("tbi")
		if err != nil {
			t.Fatal(err)
		}
		// Attach a real pipeline so the transactional protocol has nodes
		// to traverse, then couple the sampler.
		rng := rand.New(rand.NewSource(5))
		g, err := graph.ErdosRenyi(20, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		src := budget.NewSource("edges", float64(w.Uses)*(1+1e-9))
		edges := core.FromDataset(graph.SymmetricEdges(g), src)
		m, err := w.Measure(edges, 0, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Attach(p, 1); err != nil {
			t.Fatal(err)
		}
		state := mcmc.NewGraphState(g, p.Input())
		before, pushes := p.Scorer().Score(), p.Input().Pushes()
		for tries := 0; tries < 100; tries++ {
			prop, ok := state.Propose(rng)
			if !ok {
				continue
			}
			state.Speculate(prop)
			state.Abort(prop)
			break
		}
		if got := p.Input().Pushes() - pushes; got != 1 {
			t.Errorf("shards=%d: a rejected proposal cost %d propagations, want 1", shards, got)
		}
		if after := p.Scorer().Score(); after != before {
			t.Errorf("shards=%d: abort restored score %v, want %v", shards, after, before)
		}
	}
}
