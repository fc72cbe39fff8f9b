package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"wpinq/internal/datasets"
	"wpinq/internal/graph"
	"wpinq/internal/queries"
	"wpinq/internal/synth"
)

// tinyOptions shrinks every experiment far enough to run in test time
// while still exercising the full code path.
func tinyOptions(buf *bytes.Buffer) Options {
	o := Defaults(buf)
	o.Scale = 0.04
	o.EpinionsScale = 0.01
	o.Steps = 400
	o.Samples = 4
	o.Repeats = 2
	o.Eps = 1.0
	return o
}

func TestTable1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CA-GrQc", "Random(CA-GrQc)", "Epinions", "paperTri"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

// TestTable1Claim asserts what Table 1's lower block shows: a
// degree-preserving randomization is triangle-poor. On five seeds at the
// tiny options' scale, every stand-in's Randomized(G) holds fewer
// triangles than G, and on the three CA stand-ins the ratio
// Random(G)/G stays below 0.4. The paper's ratios are 586/48 260 (GrQc),
// 323 867/3 358 499 (HepPh) and 322/28 339 (HepTh); the stand-ins here
// have 200–480 vertices, where a rewiring keeps more of them. Over twenty
// seeds the CA ratios read 0.15–0.29 (GrQc), 0.17–0.35 (HepPh) and
// 0.10–0.24 (HepTh), so the bound sits above the widest of them. The
// Caltech stand-in at this scale is 31 vertices of degree up to 30, close
// to complete (density 0.90, logged for every stand-in): its
// randomization loses only 2–11 of ~3 370 triangles (ratio 0.996–0.9997
// over the same seeds), which the strict inequality still requires. It
// stops being near-complete from scale 0.1 (density 0.47, ratio
// 0.96–0.97; DESIGN, "Asserted claims"). No fit runs.
func TestTable1Claim(t *testing.T) {
	const seeds, caBound = 5, 0.4
	o := tinyOptions(nil)
	for _, name := range datasets.All() {
		scale := o.Scale
		if name == datasets.Epinions {
			scale = o.EpinionsScale
		}
		for rep := range int64(seeds) {
			g, err := datasets.Generate(name, scale, o.rng(200+10*rep))
			if err != nil {
				t.Fatal(err)
			}
			tri, randomTri := g.Triangles(), datasets.Randomized(g, o.rng(300+10*rep)).Triangles()
			ratio := float64(randomTri) / float64(tri)
			n := float64(g.NumNodes())
			density := float64(g.NumEdges()) / (n * (n - 1) / 2)
			t.Logf("%s seed %d: %d vertices, density %.3f, %d triangles, randomized %d (ratio %.3f)",
				name, rep, g.NumNodes(), density, tri, randomTri, ratio)
			if randomTri >= tri {
				t.Errorf("%s seed %d: randomized graph holds %d triangles, the graph %d", name, rep, randomTri, tri)
			}
			if name != datasets.Caltech && name != datasets.Epinions && ratio >= caBound {
				t.Errorf("%s seed %d: randomized/real triangles %.3f, want below %v", name, rep, ratio, caBound)
			}
		}
	}
}

func TestFig1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "worst(Fig1-left)") || !strings.Contains(out, "best(Fig1-right)") {
		t.Errorf("fig1 output incomplete:\n%s", out)
	}
}

// TestFig1Claim asserts what Figure 1 shows, at the tiny options' n and
// at 4n. On the best-case graph wPINQ's TbI signal-to-noise ratio,
// TbISignal·ε against Laplace(1/ε), is at least ten times the worst-case
// mechanism's, Triangles·ε/(|V|−2), and grows with n. On the worst-case
// graph the signal stays below 3: it is 3(|V|−2)/(|V|−1), however many
// triangles the graph has.
func TestFig1Claim(t *testing.T) {
	o := tinyOptions(nil)
	n := int(math.Max(16, 512*o.Scale*4))
	prev := 0.0
	for _, n := range []int{n, 4 * n} {
		worst, best := fig1Graphs(n)
		s := graph.ComputeStats(best)
		signal := queries.TbISignal(best) * o.Eps
		worstCase := float64(s.Triangles) * o.Eps / float64(s.Nodes-2)
		if signal < 10*worstCase {
			t.Errorf("n=%d best case: wPINQ ratio %.3g is not 10× the worst-case mechanism's %.3g", n, signal, worstCase)
		}
		if signal <= prev {
			t.Errorf("n=%d best case: wPINQ ratio %.3g did not grow from %.3g", n, signal, prev)
		}
		prev = signal
		v := float64(worst.NumNodes())
		got, want := queries.TbISignal(worst), 3*(v-2)/(v-1)
		if got >= 3 || math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d worst case: TbISignal %v, want 3(|V|−2)/(|V|−1) = %v < 3", n, got, want)
		}
	}
}

func TestFig3Runs(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Steps = 200
	if err := Fig3(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CA-GrQc+buckets", "Random+buckets", "# series:"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
}

// TestFig3Claim asserts what Figure 3 shows: at equal ε, a TbD fit with
// degree bucketing (bucket 20) brings the GrQc stand-in's triangle count
// closer to the truth than an unbucketed TbD fit does. At the scaled
// defaults (scale 0.12, 630 vertices, 2 949 triangles; ε = 0.1, Fig3's
// quarter budget of 5 000 steps) five seeds each fit both ways from the
// same rng seed. The mean |fit − truth| bucketed, 2 008 ± 339, sits below
// the unbucketed 2 127 ± 116, but not by more than the spread, the sum of
// the two standard deviations, that the other claims clear: bucketing
// wins on two of the five seeds, and neither fit gets within two thirds
// of the truth in 5 000 steps. That is a finding (CHANGES.md), not a
// result, so both variants assert only the direction of the means and
// log the numbers. -short fits the tiny options' 211-vertex stand-in at
// ε = 1 (8 000 / 4 steps): 577 ± 80 against 641 ± 20.
func TestFig3Claim(t *testing.T) {
	o := Defaults(nil)
	if testing.Short() {
		o = tinyOptions(nil)
		o.Steps = 8000
	}
	g, err := datasets.Generate(datasets.GrQc, o.Scale, o.rng(31))
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.Triangles())
	fitErr := func(bucket int) []float64 {
		cfg := synth.Config{Eps: o.Eps, Workloads: []string{"tbd"}, Bucket: bucket, Pow: o.Pow, Steps: o.Steps / 4}
		var errs []float64
		for rep := range int64(5) {
			res, err := synth.Run(g, cfg, o.rng(210+rep))
			if err != nil {
				t.Fatal(err)
			}
			errs = append(errs, math.Abs(float64(res.Synthetic.Triangles())-truth))
		}
		return errs
	}
	flat, bucketed := fitErr(1), fitErr(20)
	mFlat, sFlat := meanStd(flat)
	mBucketed, sBucketed := meanStd(bucketed)
	t.Logf("%d nodes, %v true triangles: |fit − truth| unbucketed %v (%.1f ± %.1f), bucketed %v (%.1f ± %.1f)",
		g.NumNodes(), truth, flat, mFlat, sFlat, bucketed, mBucketed, sBucketed)
	if mBucketed >= mFlat {
		t.Errorf("mean |fit − truth| bucketed %.1f is not below unbucketed %.1f", mBucketed, mFlat)
	}
}

// TestTrajectoryShape pins what a figure line holds: Samples + 1 points,
// the first the seed graph's at step 0, the rest at multiples of
// sampleEvery — not at the checkpoint stops a durable fit adds between
// them — and the last the graph the fit returns.
func TestTrajectoryShape(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	g, err := datasets.Generate(datasets.GrQc, o.Scale, o.rng(31))
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.Config{
		Eps: o.Eps, Workloads: []string{"tbi"}, Pow: o.Pow, Steps: o.Steps,
		CheckpointEvery: 64,
	}
	line, res, err := trajectory(g, cfg, o, 33, "shape")
	if err != nil {
		t.Fatal(err)
	}
	if line.Len() != o.Samples+1 {
		t.Fatalf("%d points, want Samples+1 = %d: %v", line.Len(), o.Samples+1, line.points)
	}
	first := line.points[0]
	if first[0] != 0 || first[1] != float64(res.Seed.Triangles()) || math.Abs(first[2]-res.Seed.Assortativity()) > 1e-12 {
		t.Errorf("first point %v, want step 0 with the seed's %d triangles and r=%v",
			first, res.Seed.Triangles(), res.Seed.Assortativity())
	}
	for i, p := range line.points[1:] {
		if want := float64((i + 1) * o.sampleEvery()); p[0] != want {
			t.Errorf("point %d at step %v, want %v", i+1, p[0], want)
		}
	}
	if last := line.Last(); last[1] != float64(res.Synthetic.Triangles()) {
		t.Errorf("last point has %v triangles, the returned graph %d", last[1], res.Synthetic.Triangles())
	}
}

func TestFig4AndTable2Run(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Steps = 200
	if err := Fig4(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CA-GrQc/real") || !strings.Contains(buf.String(), "CA-GrQc/random") {
		t.Error("fig4 output incomplete")
	}
	buf.Reset()
	if err := Table2(o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Seed", "MCMC", "Truth", "Caltech"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestFig5Runs(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Steps = 100
	o.Repeats = 2
	if err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"0.01", "10", "meanTriangles", "stddev"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 output missing %q", want)
		}
	}
}

// TestFig5Claim asserts what Figure 5 shows: the error of a TbI fit
// shrinks as ε grows. On the GrQc stand-in at the tiny options' scale
// (595 true triangles) it fits TbI at ε = 0.01, 0.1, 1 and 10, five seeds
// each, 8 000 steps, and takes the RMS of synthetic minus true triangles.
// The RMS must fall strictly from 0.01 to 0.1 to 1. From ε = 1 on the
// noise no longer dominates the fit, so ε = 10 may not be worse than
// ε = 1 by more than the spread of ε = 1's own errors (their standard
// deviation). Measured on two sets of seeds, the RMS read 758 / 193 / 32
// / 28 and 776 / 130 / 64 / 43, and ε = 1's standard deviation 17.5 and
// 36. At 2 000 steps the fit had not converged (a probe read a mean error
// of 426 at ε = 10), so -short keeps the step count and cuts the ε grid
// to its two ends.
func TestFig5Claim(t *testing.T) {
	o := tinyOptions(nil)
	g, err := datasets.Generate(datasets.GrQc, o.Scale, o.rng(80))
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.Triangles())
	epsilons := []float64{0.01, 0.1, 1, 10}
	if testing.Short() {
		epsilons = []float64{0.01, 10}
	}
	const seeds, steps = 5, 8000
	rms := make([]float64, len(epsilons))
	spread := make([]float64, len(epsilons))
	for i, eps := range epsilons {
		errs := make([]float64, seeds)
		sq := 0.0
		for rep := range errs {
			cfg := synth.Config{Eps: eps, Workloads: []string{"tbi"}, Pow: o.Pow, Steps: steps}
			res, err := synth.Run(g, cfg, o.rng(90+int64(rep)+int64(eps*1000)))
			if err != nil {
				t.Fatalf("eps=%v: %v", eps, err)
			}
			errs[rep] = float64(res.Synthetic.Triangles()) - truth
			sq += errs[rep] * errs[rep]
		}
		rms[i] = math.Sqrt(sq / seeds)
		_, spread[i] = meanStd(errs)
		t.Logf("eps=%v: RMS triangle error %.1f (truth %v, errors %v)", eps, rms[i], truth, errs)
	}
	for i := 1; i < len(epsilons); i++ {
		if epsilons[i] <= 1 {
			if rms[i] >= rms[i-1] {
				t.Errorf("eps %v → %v: RMS error %.1f → %.1f did not fall", epsilons[i-1], epsilons[i], rms[i-1], rms[i])
			}
		} else if rms[i] > rms[i-1]+spread[i-1] {
			t.Errorf("eps %v → %v: RMS error %.1f → %.1f, worse by more than the spread %.1f",
				epsilons[i-1], epsilons[i], rms[i-1], rms[i], spread[i-1])
		}
	}
}

// TestTable2Claim asserts what Table 2 and Figure 4 show. A TbI fit moves
// the triangle count from the Phase 1 seed toward the truth: on the GrQc
// stand-in at the tiny options' scale, five seeds at ε = 1 and 8 000
// steps, the mean |fit − truth| is below the mean |seed − truth|. And the
// fit tells a real graph from its randomization: the mean fitted
// triangles of Randomized(GrQc) sit below the real graph's by more than
// the spread, the sum of the two sets' standard deviations. -short fits
// the real graph only.
func TestTable2Claim(t *testing.T) {
	o := tinyOptions(nil)
	graphs, err := fig4Graphs(o)
	if err != nil {
		t.Fatal(err)
	}
	g := graphs[datasets.GrQc]
	const seeds, steps = 5, 8000
	cfg := synth.Config{Eps: 1, Workloads: []string{"tbi"}, Pow: o.Pow, Steps: steps}
	fit := func(g *graph.Graph, offset int64) (fitted, seedErr, fitErr []float64) {
		truth := float64(g.Triangles())
		for rep := range int64(seeds) {
			res, err := synth.Run(g, cfg, o.rng(offset+rep))
			if err != nil {
				t.Fatal(err)
			}
			tri := float64(res.Synthetic.Triangles())
			fitted = append(fitted, tri)
			seedErr = append(seedErr, math.Abs(float64(res.Seed.Triangles())-truth))
			fitErr = append(fitErr, math.Abs(tri-truth))
		}
		return fitted, seedErr, fitErr
	}

	fitted, seedErr, fitErr := fit(g, 170)
	meanSeed, _ := meanStd(seedErr)
	meanFit, _ := meanStd(fitErr)
	t.Logf("real: truth %d, fitted %v, mean |seed − truth| %.1f, mean |fit − truth| %.1f", g.Triangles(), fitted, meanSeed, meanFit)
	if meanFit >= meanSeed {
		t.Errorf("mean |fit − truth| %.1f is not below mean |seed − truth| %.1f", meanFit, meanSeed)
	}
	if testing.Short() {
		return
	}
	random := datasets.Randomized(g, o.rng(50))
	fittedRandom, _, _ := fit(random, 180)
	mReal, sReal := meanStd(fitted)
	mRandom, sRandom := meanStd(fittedRandom)
	t.Logf("random: truth %d, fitted %v; real mean %.1f ± %.1f, random mean %.1f ± %.1f", random.Triangles(), fittedRandom, mReal, sReal, mRandom, sRandom)
	if mReal-mRandom <= sReal+sRandom {
		t.Errorf("fitted triangles: random %.1f ± %.1f is not below real %.1f ± %.1f by more than the spread %.1f",
			mRandom, sRandom, mReal, sReal, sReal+sRandom)
	}
}

// TestFig4Claim asserts Figure 4's claim on the two stand-ins
// TestTable2Claim does not cover: a TbI fit tells a real graph from its
// randomization. On the HepPh and HepTh stand-ins at the tiny options'
// scale, each randomized as Fig4 does, five seeds per graph at ε = 1 and
// 8 000 steps, the mean fitted triangles of the real graph's release
// exceed those of its randomization's by more than the spread, the sum of
// the two sets' standard deviations (TestTable2Claim's rule). -short fits
// 2 000 steps. Caltech is left out: its stand-in is near-complete at this
// scale, so its randomization keeps nearly every triangle, and at full
// scale its clustering is off the paper's (DESIGN, "Asserted claims").
func TestFig4Claim(t *testing.T) {
	o := tinyOptions(nil)
	graphs, err := fig4Graphs(o)
	if err != nil {
		t.Fatal(err)
	}
	steps := 8000
	if testing.Short() {
		steps = 2000
	}
	cfg := synth.Config{Eps: 1, Workloads: []string{"tbi"}, Pow: o.Pow, Steps: steps}
	for _, c := range []struct {
		name                          datasets.Name
		randomize, realFit, randomFit int64 // rng offsets: Fig4's randomization, the first seed of each graph's fits
	}{
		{datasets.HepPh, 54, 220, 230},
		{datasets.HepTh, 52, 240, 250},
	} {
		g := graphs[c.name]
		random := datasets.Randomized(g, o.rng(c.randomize))
		fitted := func(g *graph.Graph, offset int64) []float64 {
			var tri []float64
			for rep := range int64(5) {
				res, err := synth.Run(g, cfg, o.rng(offset+rep))
				if err != nil {
					t.Fatal(err)
				}
				tri = append(tri, float64(res.Synthetic.Triangles()))
			}
			return tri
		}
		onReal, onRandom := fitted(g, c.realFit), fitted(random, c.randomFit)
		mReal, sReal := meanStd(onReal)
		mRandom, sRandom := meanStd(onRandom)
		t.Logf("%s: truth %d real, %d random; fitted real %v, random %v; real mean %.1f ± %.1f, random mean %.1f ± %.1f",
			c.name, g.Triangles(), random.Triangles(), onReal, onRandom, mReal, sReal, mRandom, sRandom)
		if mReal-mRandom <= sReal+sRandom {
			t.Errorf("%s: fitted triangles: random %.1f ± %.1f is not below real %.1f ± %.1f by more than the spread %.1f",
				c.name, mRandom, sRandom, mReal, sReal, sReal+sRandom)
		}
	}
}

func TestTable3Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"0.5", "0.7", "sum d^2"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	o.Scale = 0.004 // fig6Size floor: n = 500
	o.Steps = 200
	if err := Fig6(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"steps/sec", "heapMB", "Epinions/real", "Epinions/random"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig6 output missing %q", want)
		}
	}
}

// TestJDDAssortativityClaim asserts the claim examples/jddassort makes:
// a fit to a JDD measurement moves assortativity from the Phase 1 seed
// toward the truth. The seed matches degrees and nothing else, so its r
// sits near or below zero while the collaboration stand-in's is assortative. On
// the GrQc stand-in at the scaled defaults (scale 0.12, ε = 0.1, 20 000
// steps), five seeds must bring the mean |r(fit) − r(true)| below the
// mean |r(seed) − r(true)| by more than the spread, the sum of the two
// sets' standard deviations: it measured 0.187 ± 0.058 against
// 0.319 ± 0.013. -short fits the tiny options' 210-node stand-in for
// 8 000 steps at ε = 1 and asserts only the direction (0.199 ± 0.075
// against 0.314 ± 0.030).
func TestJDDAssortativityClaim(t *testing.T) {
	o := Defaults(nil)
	if testing.Short() {
		o = tinyOptions(nil)
		o.Steps = 8000
	}
	g, err := datasets.Generate(datasets.GrQc, o.Scale, o.rng(int64(41+len(datasets.GrQc))))
	if err != nil {
		t.Fatal(err)
	}
	truth := g.Assortativity()
	cfg := synth.Config{Eps: o.Eps, Workloads: []string{"jdd"}, Pow: o.Pow, Steps: o.Steps}
	var seedErr, fitErr []float64
	for rep := range int64(5) {
		res, err := synth.Run(g, cfg, o.rng(190+rep))
		if err != nil {
			t.Fatal(err)
		}
		seedErr = append(seedErr, math.Abs(res.Seed.Assortativity()-truth))
		fitErr = append(fitErr, math.Abs(res.Synthetic.Assortativity()-truth))
	}
	meanSeed, sSeed := meanStd(seedErr)
	meanFit, sFit := meanStd(fitErr)
	t.Logf("%d nodes, r(true) %.3f: |r(seed) − r(true)| %.3f ± %.3f, |r(fit) − r(true)| %.3f ± %.3f",
		g.NumNodes(), truth, meanSeed, sSeed, meanFit, sFit)
	spread := sSeed + sFit
	if testing.Short() {
		spread = 0
	}
	if meanSeed-meanFit <= spread {
		t.Errorf("mean |r(fit) − r(true)| %.3f is not below mean |r(seed) − r(true)| %.3f by more than %.3f",
			meanFit, meanSeed, spread)
	}
}
