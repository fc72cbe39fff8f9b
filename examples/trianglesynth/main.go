// Trianglesynth: the paper's full graph-synthesis workflow (Section 5) on
// a small collaboration graph.
//
//  1. Take DP measurements (degree sequence, CCDF, node count, TbI).
//  2. Regress a degree sequence and build a random seed graph.
//  3. Fit the seed to the TbI triangle signal with Metropolis-Hastings
//     over degree-preserving edge swaps, scored incrementally on the
//     sharded dataflow executor — as two replica-exchange chains: a cold
//     chain at the target pow refines while a hot chain at pow/2
//     explores, trading temperatures every SwapEvery steps.
//
// The seed starts triangle-poor; MCMC recovers a large share of the true
// triangle count using only the released noisy measurements.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"wpinq/internal/graph"
	"wpinq/internal/synth"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	g, err := graph.Collaboration(graph.CollaborationConfig{
		Authors:     400,
		Papers:      380,
		MeanAuthors: 3.0,
		MaxAuthors:  10,
		PrefAttach:  0.55,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protected graph: %d nodes, %d edges, %d triangles, r=%.2f\n",
		g.NumNodes(), g.NumEdges(), g.Triangles(), g.Assortativity())

	cfg := synth.Config{
		Eps:       0.5,             // per-measurement privacy parameter
		Workloads: []string{"tbi"}, // triangles-by-intersect (4 eps)
		Pow:       10000,           // near-greedy posterior (cold chain)
		Steps:     30000,
		Shards:    0, // one shard per CPU, split across chains
		Chains:    2, // replica exchange: cold (pow) + hot (pow/2)
		SwapEvery: 2048,
	}
	// Watch the fit at its stops: every 5000 steps, the best chain's graph.
	const every = 5000
	cfg.ProgressEvery = every
	cfg.OnProgress = func(p synth.Progress) bool {
		if p.Step%every == 0 {
			fmt.Printf("  step %6d: triangles = %d\n", p.Step, p.Synthetic().Triangles())
		}
		return true
	}

	m, err := synth.Measure(g, cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	seed, err := synth.SeedGraph(m, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  step %6d: triangles = %d\n", 0, seed.Triangles())
	res, err := synth.Synthesize(m, seed, cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal privacy cost: %.2f (= 7 x eps: 3 seed + 4 TbI)\n", res.TotalCost)
	fmt.Printf("accepted %d / rejected %d / invalid %d proposals (best chain)\n",
		res.Stats.Accepted, res.Stats.Rejected, res.Stats.Invalid)
	for _, c := range res.Chains {
		marker := " "
		if c.Chain == res.BestChain {
			marker = "*"
		}
		fmt.Printf("%s chain %d: pow %-7.5g score %.4g, %d accepted, %d/%d swaps\n",
			marker, c.Chain, c.Pow, c.FinalScore, c.Accepted, c.SwapsAccepted, c.SwapsProposed)
	}
	fmt.Println("\ntriangles:")
	fmt.Printf("  seed graph (phase 1):      %6d\n", res.Seed.Triangles())
	fmt.Printf("  synthetic graph (phase 2): %6d\n", res.Synthetic.Triangles())
	fmt.Printf("  protected graph (truth):   %6d\n", g.Triangles())
	fmt.Printf("\nassortativity: seed %.3f -> synthetic %.3f (truth %.3f)\n",
		res.Seed.Assortativity(), res.Synthetic.Assortativity(), g.Assortativity())
}
