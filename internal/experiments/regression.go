package experiments

import (
	"fmt"
	"math"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/datasets"
	"wpinq/internal/graph"
	"wpinq/internal/postprocess"
	"wpinq/internal/queries"
)

// Regression evaluates Section 3.1's post-processing on the GrQc stand-in:
// the L1 error of the degree-sequence estimate from (a) the raw noisy
// measurements, (b) isotonic regression (PAVA) on the sequence alone, and
// (c) the paper's lowest-cost grid path fusing the sequence with the CCDF,
// across a sweep of eps. This quantifies the claim that fusing the two
// measurements "make[s] postprocessing more accurate" — an evaluation the
// paper asserts but does not tabulate.
func Regression(o Options) error {
	g, err := datasets.Generate(datasets.GrQc, o.Scale, o.rng(150))
	if err != nil {
		return err
	}
	trueSeq := g.DegreeSequence()
	n := g.NumNodes()
	fmt.Fprintf(o.Out, "Section 3.1 regression quality (GrQc stand-in, n=%d, dmax=%d, %d repeats)\n",
		n, g.MaxDegree(), o.Repeats)
	tb := newTable("eps", "rawL1", "isotonicL1", "gridPathL1", "grid/raw")
	for _, eps := range []float64{0.1, 0.5, 2.0} {
		var rawE, isoE, gridE float64
		for rep := 0; rep < o.Repeats; rep++ {
			rng := o.rng(151 + int64(rep) + int64(eps*1000))
			src := budget.NewSource("edges", 2*eps*(1+1e-9))
			edges := core.FromDataset(graph.SymmetricEdges(g), src)
			seqHist, err := core.NoisyCount(queries.OneShot(queries.DegreeSequence(), edges), eps, rng)
			if err != nil {
				return err
			}
			ccdfHist, err := core.NoisyCount(queries.OneShot(queries.DegreeCCDF(), edges), eps, rng)
			if err != nil {
				return err
			}
			width := n + 16
			height := g.MaxDegree() + 24
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
				return err
			}
			iso := postprocess.IsotonicDecreasing(v)
			for x := 0; x < width; x++ {
				want := 0.0
				if x < len(trueSeq) {
					want = float64(trueSeq[x])
				}
				rawE += math.Abs(v[x] - want)
				isoE += math.Abs(iso[x] - want)
				gridE += math.Abs(float64(fitted[x]) - want)
			}
		}
		reps := float64(o.Repeats)
		tb.AddRow(eps, rawE/reps, isoE/reps, gridE/reps, gridE/rawE)
	}
	return tb.Render(o.Out)
}
