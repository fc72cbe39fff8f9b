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

// TestTrajectoryShape pins what a figure line holds: Samples + 1 points,
// the first the seed graph's at step 0, the rest at multiples of
// sampleEvery — not at the swap stops a ladder adds between them — and the
// last the graph the fit returns.
func TestTrajectoryShape(t *testing.T) {
	var buf bytes.Buffer
	o := tinyOptions(&buf)
	g, err := datasets.Generate(datasets.GrQc, o.Scale, o.rng(31))
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.Config{
		Eps: o.Eps, Workloads: []string{"tbi"}, Pow: o.Pow, Steps: o.Steps,
		Chains: 2, SwapEvery: 64,
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
