package workload_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/workload"
)

// fuseLayouts are the subtests every fused-vs-unfused differential
// runs. The names are those of the executor layouts the differentials
// once ran on (the retired reference engine, one shard, three shards
// dispatching in parallel), kept because test ids outlive what they
// named. Every row runs the one engine there is, each walking its own
// swap sequence; the first walks the test's original one.
var fuseLayouts = []struct {
	name string
	seed int64 // offset of the walk's swap seed
}{
	{"serial", 0},
	{"engine-1", 1000},
	{"engine-3", 2000},
}

// fuseSubsets samples the power set of registered workloads at the
// interesting overlap structures: singletons (nothing to fuse), the
// paths-sharing pair, the degrees-sharing pair, a pair with no shared
// prefix beyond the root, a triple, and the full set.
func fuseSubsets(t *testing.T) [][]string {
	t.Helper()
	all := workload.Names()
	subsets := [][]string{all}
	for _, name := range all {
		subsets = append(subsets, []string{name})
	}
	subsets = append(subsets,
		[]string{"tbi", "wedges"},          // share the paths join
		[]string{"jdd", "tbd"},             // share the degree GroupBy (tbd unbucketed here would; bucketed shares with star4)
		[]string{"jdd", "wedges"},          // no shared fragment: empty overlap
		[]string{"star4-by-degree", "tbd"}, // share the bucketed degrees
		[]string{"tbi", "tbd", "wedges"},   // three consumers of one paths fragment
	)
	return subsets
}

// measureFits takes one real DP measurement per named workload (sorted
// name order, exactly like synth.Measure) against a budget-backed
// protected graph.
func measureFits(t testing.TB, g *graph.Graph, names []string, bucket int, eps float64, seed int64) []workload.Measured {
	t.Helper()
	ws, err := workload.Resolve(names)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	total := 0
	for _, w := range ws {
		total += w.Uses
	}
	src := budget.NewSource("edges", float64(total)*eps*(1+1e-9))
	edges := core.FromDataset(graph.SymmetricEdges(g), src)
	rng := rand.New(rand.NewSource(seed))
	fits := make([]workload.Measured, 0, len(ws))
	for _, w := range ws {
		m, err := w.Measure(edges, bucket, eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		fits = append(fits, m)
	}
	return fits
}

// fusePlan builds one plan (fused or not), attaches every
// fit (its own copy, loaded under a fixed seed, so both plans of a
// differential pair hold bit-identical released histograms and draw
// bit-identical lazy noise) plus a collector per workload, and returns
// the plan, the attached fits, and the collectors in workload order.
func fusePlan(t testing.TB, fits []workload.Measured, fuse bool, eps float64, noiseSeed int64) (*workload.Plan, []workload.Measured, []workload.Collected) {
	t.Helper()
	p := workload.NewPlanFused(1, fuse)
	rng := rand.New(rand.NewSource(noiseSeed))
	attached := make([]workload.Measured, 0, len(fits))
	cols := make([]workload.Collected, 0, len(fits))
	for _, fit := range fits {
		entries, err := fit.Entries()
		if err != nil {
			t.Fatal(err)
		}
		fit, err := fit.Workload.Load(entries, fit.Bucket, eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := fit.Attach(p, eps); err != nil {
			t.Fatal(err)
		}
		attached = append(attached, fit)
		cols = append(cols, fit.Workload.Collect(p, fit.Bucket))
	}
	return p, attached, cols
}

// entriesJSON serializes a measurement's canonical entries.
func entriesJSON(t *testing.T, m workload.Measured) string {
	t.Helper()
	es, err := m.Entries()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(es)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// scoresClose compares fit scores across the fused/unfused pair.
// Sharing a fragment changes operator construction order, which can
// reorder floating-point accumulation at downstream binary joins, so
// exact bit equality is not guaranteed; 1e-9 relative is far below any
// decision-relevant difference and far above accumulated ulp drift.
func scoresClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestFusedMatchesUnfusedOnWorkloadSubsets is the tentpole's primary
// differential: over power-set samples of the registry and every row, a
// fused plan and a per-workload-pipeline plan
// attached to bit-identical released histograms produce the same fit
// scores and the same collected outputs, initially and across a
// sequence of edge swaps — and the fused plan does strictly less
// propagation work whenever the subset shares a prefix.
func TestFusedMatchesUnfusedOnWorkloadSubsets(t *testing.T) {
	const (
		eps    = 1.0
		bucket = 2
	)
	g0 := testGraph(t)
	for _, names := range fuseSubsets(t) {
		names := names
		fits := measureFits(t, g0, names, bucket, eps, 11)
		for _, l := range fuseLayouts {
			l := l
			t.Run(fmt.Sprintf("%v/%s", names, l.name), func(t *testing.T) {
				t.Parallel()
				g := g0.Clone()
				fused, fusedFits, fusedCols := fusePlan(t, fits, true, eps, 23)
				plain, plainFits, plainCols := fusePlan(t, fits, false, eps, 23)

				// The released histograms the two plans fit against must be
				// byte-identical: fusion is a plan transformation, not a
				// measurement change.
				for i := range fusedFits {
					fj, pj := entriesJSON(t, fusedFits[i]), entriesJSON(t, plainFits[i])
					if fj != pj {
						t.Fatalf("%s: released histograms differ between fused and unfused plans", fusedFits[i].Workload.Name)
					}
				}

				fused.Input().PushDataset(graph.SymmetricEdges(g))
				plain.Input().PushDataset(graph.SymmetricEdges(g))

				compare := func(step int) {
					t.Helper()
					fs, ps := fused.Scorer().Score(), plain.Scorer().Score()
					if !scoresClose(fs, ps) {
						t.Fatalf("step %d: fused score %v, unfused %v", step, fs, ps)
					}
					for i := range fusedCols {
						fsnap, err := fusedCols[i].Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						psnap, err := plainCols[i].Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						diffMaps(t, step, fsnap, psnap)
					}
				}
				compare(-1)

				rng := rand.New(rand.NewSource(17 + l.seed))
				edges := g.EdgeList()
				for step := 0; step < 6; step++ {
					ei, ej := rng.Intn(len(edges)), rng.Intn(len(edges))
					if ei == ej {
						continue
					}
					a, b := edges[ei].Src, edges[ei].Dst
					c, d := edges[ej].Src, edges[ej].Dst
					if rng.Intn(2) == 0 {
						c, d = d, c
					}
					if a == d || c == b || a == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
						continue
					}
					g.RemoveEdge(a, b)
					g.RemoveEdge(c, d)
					g.AddEdge(a, d)
					g.AddEdge(c, b)
					edges[ei] = graph.Edge{Src: a, Dst: d}
					edges[ej] = graph.Edge{Src: c, Dst: b}
					diff := swapDiffs(a, b, c, d)
					fused.Input().Push(diff)
					plain.Input().Push(diff)
					compare(step)
				}

				// Propagation-work accounting: the same requests went
				// through both memos, so any sharing must show up as
				// strictly fewer fragment batch deliveries on the fused
				// side; with nothing shared the two plans are the same plan.
				fstat, pstat := fused.Fusion().Stats(), plain.Fusion().Stats()
				if fstat.Requests != pstat.Requests {
					t.Fatalf("request counts diverged: fused %+v, unfused %+v", fstat, pstat)
				}
				if fstat.Shared > 0 {
					if fp, pp := fused.Fusion().Pushes(), plain.Fusion().Pushes(); fp >= pp {
						t.Errorf("fused plan delivered %d fragment batches, unfused %d; sharing %d fragments must cost less",
							fp, pp, fstat.Shared)
					}
					if len(fused.Fusion().FanOuts()) == 0 {
						t.Errorf("memo shares %d requests but reports no fan-out fragments", fstat.Shared)
					}
				} else if fused.Fusion().Pushes() != plain.Fusion().Pushes() {
					t.Errorf("no fragments shared, but push counts differ: fused %d, unfused %d",
						fused.Fusion().Pushes(), plain.Fusion().Pushes())
				}
			})
		}
	}
}

// TestFusedPlanDAGShape pins the fused DAG the full registry compiles
// to: one paths join fanning out to tbi, tbd, and wedges; one unbucketed
// degrees fragment for jdd; one bucketed degrees fragment shared by tbd
// and star4-by-degree.
func TestFusedPlanDAGShape(t *testing.T) {
	const (
		eps    = 1.0
		bucket = 2
	)
	g := testGraph(t)
	fits := measureFits(t, g, workload.Names(), bucket, eps, 11)
	p, _, _ := fusePlan(t, fits, true, eps, 23)
	dag := p.Fusion().DAG()
	fanout := map[string]int{}
	for _, f := range dag {
		if f.Refs > 1 {
			fanout[f.Key] = f.Refs
		}
	}
	// Collectors double every request, so expected fan-out refs are
	// 2x the sink-only consumer counts: paths feeds tbi, tbd, wedges
	// (via pathdeg and suffixes), degrees/b=2 feeds tbd and star4.
	if fanout["paths"] == 0 || fanout["degrees/b=2"] == 0 {
		t.Fatalf("expected paths and degrees/b=2 fan-outs, got %v", fanout)
	}
	if fanout["jdd"] != 2 || fanout["tbi"] != 2 {
		t.Fatalf("terminal fragments should be shared by sink+collector, got %v", fanout)
	}
	// Inputs are read off the operator tree and requested before
	// their consumer, so the DAG lists every fragment after all of
	// its inputs.
	at := map[string]int{"edges": -1}
	inputs := map[string][]string{}
	for i, f := range dag {
		at[f.Key], inputs[f.Key] = i, f.Inputs
		for _, in := range f.Inputs {
			if j, ok := at[in]; !ok || j >= i {
				t.Fatalf("fragment %s is recorded before its input %s: %+v", f.Key, in, dag)
			}
		}
	}
	for key, want := range map[string][]string{
		"paths":       {"edges"},
		"pathdeg/b=2": {"paths", "degrees/b=2"},
		"jdd":         {"degrees/b=1", "edges"},
		"tbd/b=2":     {"pathdeg/b=2"},
	} {
		if !reflect.DeepEqual(inputs[key], want) {
			t.Fatalf("fragment %s has inputs %v, want %v", key, inputs[key], want)
		}
	}
}
