package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/queries"
	"wpinq/internal/weighted"
)

// neighbours draws a weighted directed edge dataset over at most 12 nodes
// and a neighbour of it: on even draws one record's weight moves by a
// delta in [-0.5, 0.5] (a record that would go negative leaves instead),
// on odd draws one record is added or removed. diff is A' - A as the
// differences an input takes, and dist is ||A - A'||_1.
func neighbours(draw int, rng *rand.Rand) (a, b *weighted.Dataset[graph.Edge], diff []incremental.Delta[graph.Edge], dist float64) {
	n := 4 + rng.Intn(9)
	a = weighted.New[graph.Edge]()
	var present, absent []graph.Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			e := graph.Edge{Src: graph.Node(u), Dst: graph.Node(v)}
			switch {
			case u == v:
			case rng.Float64() < 0.3:
				a.Set(e, 0.1+1.4*rng.Float64())
				present = append(present, e)
			default:
				absent = append(absent, e)
			}
		}
	}
	var e graph.Edge
	var delta float64
	switch {
	case draw%2 == 0:
		e = present[rng.Intn(len(present))]
		delta = math.Max(rng.Float64()-0.5, -a.Weight(e))
	case rng.Intn(2) == 0:
		e = absent[rng.Intn(len(absent))]
		delta = 0.1 + 1.4*rng.Float64()
	default:
		e = present[rng.Intn(len(present))]
		delta = -a.Weight(e)
	}
	b = a.Clone()
	b.Set(e, a.Weight(e)+delta)
	return a, b, []incremental.Delta[graph.Edge]{{Record: e, Weight: delta}}, math.Abs(delta)
}

// l1 is ||x - y||_1 over the union of their keys.
func l1(x, y map[string]float64) float64 {
	var d float64
	for k, w := range x {
		d += math.Abs(w - y[k])
	}
	for k, w := range y {
		if _, ok := x[k]; !ok {
			d += math.Abs(w)
		}
	}
	return d
}

// TestPlansAreStable checks the paper's theorem on the plans that release
// data, not only on the reference operators: every registered workload,
// SbD, the three seed measurements and the motif compiler's plans are
// each Uses-stable — neighbouring weighted edge datasets A, A' give
// ||Q(A) - Q(A')||_1 <= Uses * ||A - A'||_1 — through the one-shot
// lowering, and the executor computes the same Q: loaded with A it holds Q(A); the difference to A'
// pushed in a transaction and aborted leaves Q(A) bit for bit; pushed
// again and committed it holds Q(A').
func TestPlansAreStable(t *testing.T) {
	const pairs, tol = 20, 1e-9
	// Beside the registry: SbD from a literal, Phase 1's seed bundle —
	// the only released plans built on Shave — and the motif plans `wpinq
	// motif` releases, with the triangle's degree profile beside the
	// registry's star4-by-degree.
	literals := []Workload{
		Define(Workload{Name: "sbd"},
			Builders[queries.DegQuad]{Expr: func(int) queries.Expr[queries.DegQuad] { return queries.SbD() }}),
		Define(Workload{Name: "seed-node-count"},
			Builders[queries.Unit]{Expr: func(int) queries.Expr[queries.Unit] { return queries.NodeCount() }}),
		Define(Workload{Name: "seed-degree-ccdf"},
			Builders[int]{Expr: func(int) queries.Expr[int] { return queries.DegreeCCDF() }}),
		Define(Workload{Name: "seed-degree-sequence"},
			Builders[int]{Expr: func(int) queries.Expr[int] { return queries.DegreeSequence() }}),
		motifCount("motif-triangle", queries.TrianglePattern),
		motifCount("motif-square", queries.SquarePattern),
		motifCount("motif-path3", queries.PathPattern3),
		motifCount("motif-star4", queries.StarPattern4),
		Define(Workload{Name: "triangle-by-degree", Bucketed: true},
			Builders[queries.DegProfile]{Expr: func(bucket int) queries.Expr[queries.DegProfile] {
				return mustPlan(queries.MotifByDegree(queries.TrianglePattern, bucket))
			}}),
	}
	for _, w := range append(All(), literals...) {
		for _, bucket := range []int{0, 3} {
			if bucket != w.normBucket(bucket) {
				continue // the workload ignores the bucket: one run covers it
			}
			t.Run(fmt.Sprintf("%s/bucket=%d", w.Name, bucket), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(31 + bucket)))
				moved := 0
				for i := 0; i < pairs; i++ {
					a, b, diff, dist := neighbours(i, rng)
					qa, err := w.impl.exact(a, bucket)
					if err != nil {
						t.Fatal(err)
					}
					qb, err := w.impl.exact(b, bucket)
					if err != nil {
						t.Fatal(err)
					}
					if d := l1(qa, qb); d > float64(w.Uses)*dist+tol {
						t.Fatalf("pair %d: ||Q(A)-Q(A')|| = %v exceeds Uses*||A-A'|| = %d*%v", i, d, w.Uses, dist)
					} else if d > 0 {
						moved++
					}
					p := NewPlan()
					col := w.impl.collect(p, bucket)
					in := p.Input()
					snapshot := func(what string, want map[string]float64) map[string]float64 {
						got, err := col.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						if d := l1(got, want); d > tol {
							t.Fatalf("pair %d: the executor %s is %v away from the one-shot query", i, what, d)
						}
						return got
					}
					in.PushDataset(a)
					loaded := snapshot("loaded with A", qa)
					in.Begin()
					in.Push(diff)
					snapshot("holding A' speculatively", qb)
					in.Abort()
					back := snapshot("after the abort", qa)
					if len(back) != len(loaded) {
						t.Fatalf("pair %d: %d records after the abort, %d before the proposal", i, len(back), len(loaded))
					}
					for k, v := range loaded {
						if math.Float64bits(back[k]) != math.Float64bits(v) {
							t.Fatalf("pair %d: the abort left %s at %v, it was %v", i, k, back[k], v)
						}
					}
					in.Begin()
					in.Push(diff)
					in.Commit()
					snapshot("after committing A'", qb)
				}
				if moved == 0 {
					t.Error("no pair moved the query's output: the bound was never exercised")
				}
			})
		}
	}
}

// motifCount is the literal workload of a pattern's MotifCount plan.
func motifCount(name string, p queries.Pattern) Workload {
	return Define(Workload{Name: name},
		Builders[queries.Unit]{Expr: func(int) queries.Expr[queries.Unit] { return mustPlan(queries.MotifCount(p)) }})
}
