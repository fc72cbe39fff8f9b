// Degreedist: differentially private degree distribution of a graph
// (paper Section 3.1).
//
// It measures the degree sequence and degree CCDF of a protected graph
// with wPINQ, then fuses the two noisy measurements with the paper's
// lowest-cost grid-path regression, and reports the error of the raw
// versus regressed estimates — demonstrating that post-processing released
// measurements is free and effective.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/postprocess"
	"wpinq/internal/queries"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// The protected graph: a small clustered social network.
	g, err := graph.HolmeKim(300, 4, 0.7, rng)
	if err != nil {
		log.Fatal(err)
	}
	trueSeq := g.DegreeSequence()
	fmt.Printf("protected graph: %d nodes, %d edges, dmax %d\n",
		g.NumNodes(), g.NumEdges(), g.MaxDegree())

	// Measure with eps = 0.5 per query (total privacy cost 1.0).
	const eps = 0.5
	src := budget.NewSource("edges", 2*eps)
	edges := core.FromDataset(graph.SymmetricEdges(g), src)
	seqHist, err := core.NoisyCount(queries.OneShot(queries.DegreeSequence(), edges), eps, rng)
	if err != nil {
		log.Fatal(err)
	}
	ccdfHist, err := core.NoisyCount(queries.OneShot(queries.DegreeCCDF(), edges), eps, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("privacy budget spent: %.2f\n\n", src.Spent())

	// Everything below is post-processing of released values: free.
	width := g.NumNodes() + 20
	height := g.MaxDegree() + 20
	v := make([]float64, width)
	for x := range v {
		v[x] = seqHist.Get(x)
	}
	h := make([]float64, height)
	for y := range h {
		h[y] = ccdfHist.Get(y)
	}
	fitted, err := postprocess.GridPath(v, h, width, height)
	if err != nil {
		log.Fatal(err)
	}
	iso := postprocess.IsotonicDecreasing(v)

	rawErr, isoErr, fitErr := 0.0, 0.0, 0.0
	for x := 0; x < width; x++ {
		want := 0.0
		if x < len(trueSeq) {
			want = float64(trueSeq[x])
		}
		rawErr += math.Abs(v[x] - want)
		isoErr += math.Abs(iso[x] - want)
		fitErr += math.Abs(float64(fitted[x]) - want)
	}
	fmt.Println("L1 error of the degree-sequence estimate:")
	fmt.Printf("  raw noisy measurements: %8.1f\n", rawErr)
	fmt.Printf("  isotonic regression:    %8.1f\n", isoErr)
	fmt.Printf("  grid-path (seq + ccdf): %8.1f\n", fitErr)

	fmt.Println("\nhead of the sequence (true / raw / fitted):")
	for x := 0; x < 10; x++ {
		fmt.Printf("  rank %2d: %3d / %6.1f / %3d\n", x, trueSeq[x], v[x], fitted[x])
	}
}
