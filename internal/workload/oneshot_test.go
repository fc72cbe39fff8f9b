package workload_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/queries"
	"wpinq/internal/weighted"
	"wpinq/internal/workload"
)

// The eager references below spell each registered workload as a plain
// composition of the weighted.* reference transformations — the
// executable specification. They are written as expression trees with
// no sharing: every reference to a sub-query evaluates it again, down to
// use(), which hands out the edge dataset and counts. The count is
// therefore the plan's privacy multiplier by the paper's definition
// (uses of the protected source), obtained without core's accounting.

type (
	edgeSet = *weighted.Dataset[graph.Edge]
	nodeDeg = weighted.Grouped[graph.Node, int]
)

func eagerDegrees(use func() edgeSet, bucket int) *weighted.Dataset[nodeDeg] {
	return weighted.GroupBy(use(),
		func(e graph.Edge) graph.Node { return e.Src },
		func(es []graph.Edge) int {
			if bucket > 1 {
				return len(es) / bucket
			}
			return len(es)
		})
}

func eagerPaths(use func() edgeSet) *weighted.Dataset[queries.Path] {
	joined := weighted.Join(use(), use(),
		func(e graph.Edge) graph.Node { return e.Dst },
		func(e graph.Edge) graph.Node { return e.Src },
		func(x, y graph.Edge) queries.Path { return queries.Path{A: x.Src, B: x.Dst, C: y.Dst} })
	return weighted.Where(joined, func(p queries.Path) bool { return p.A != p.C })
}

func eagerTbI(use func() edgeSet, _ int) (map[string]float64, error) {
	rotated := weighted.Select(eagerPaths(use), queries.Path.Rotate)
	triangles := weighted.Intersect(rotated, eagerPaths(use))
	return canonical(weighted.Select(triangles, func(queries.Path) queries.Unit { return queries.Unit{} }))
}

func eagerWedges(use func() edgeSet, _ int) (map[string]float64, error) {
	return canonical(weighted.Select(eagerPaths(use), func(queries.Path) queries.Unit { return queries.Unit{} }))
}

func eagerJDD(use func() edgeSet, _ int) (map[string]float64, error) {
	temp := func() *weighted.Dataset[queries.EdgeDeg] {
		return weighted.Join(eagerDegrees(use, 1), use(),
			func(d nodeDeg) graph.Node { return d.Key },
			func(e graph.Edge) graph.Node { return e.Src },
			func(d nodeDeg, e graph.Edge) queries.EdgeDeg { return queries.EdgeDeg{Edge: e, Deg: d.Result} })
	}
	return canonical(weighted.Join(temp(), temp(),
		func(x queries.EdgeDeg) graph.Edge { return x.Edge },
		func(y queries.EdgeDeg) graph.Edge { return y.Edge.Reverse() },
		func(x, y queries.EdgeDeg) queries.DegPair { return queries.DegPair{DA: x.Deg, DB: y.Deg} }))
}

func eagerTbD(use func() edgeSet, bucket int) (map[string]float64, error) {
	rotate := func(x queries.PathDeg) queries.PathDeg { return queries.PathDeg{Path: x.Path.Rotate(), Deg: x.Deg} }
	byPath := func(x queries.PathDeg) queries.Path { return x.Path }
	abc := func() *weighted.Dataset[queries.PathDeg] {
		return weighted.Join(eagerPaths(use), eagerDegrees(use, bucket),
			func(p queries.Path) graph.Node { return p.B },
			func(d nodeDeg) graph.Node { return d.Key },
			func(p queries.Path, d nodeDeg) queries.PathDeg { return queries.PathDeg{Path: p, Deg: d.Result} })
	}
	bca := func() *weighted.Dataset[queries.PathDeg] { return weighted.Select(abc(), rotate) }
	cab := weighted.Select(bca(), rotate)
	two := weighted.Join(abc(), bca(), byPath, byPath,
		func(x, y queries.PathDeg) queries.PathDeg2 {
			return queries.PathDeg2{Path: x.Path, D1: x.Deg, D2: y.Deg}
		})
	return canonical(weighted.Join(two, cab,
		func(x queries.PathDeg2) queries.Path { return x.Path }, byPath,
		func(x queries.PathDeg2, y queries.PathDeg) queries.DegTriple {
			return queries.SortTriple(x.D1, x.D2, y.Deg)
		}))
}

// eagerStar4 is the 3-star's motif-by-degree plan written out: seed an
// embedding (hub, leaf) from every directed edge, extend it by two more
// edges out of the hub keeping injective embeddings, then join each of
// the four vertices with its degree.
func eagerStar4(use func() edgeSet, bucket int) (map[string]float64, error) {
	type star struct {
		V    [4]graph.Node // hub, then leaves
		Degs [4]int
	}
	bySrc := func(e graph.Edge) graph.Node { return e.Src }
	emb := weighted.Select(use(), func(e graph.Edge) star {
		return star{V: [4]graph.Node{e.Src, e.Dst, -1, -1}}
	})
	for slot := 2; slot < 4; slot++ {
		joined := weighted.Join(emb, use(),
			func(s star) graph.Node { return s.V[0] }, bySrc,
			func(s star, e graph.Edge) star {
				s.V[slot] = e.Dst
				return s
			})
		emb = weighted.Where(joined, func(s star) bool {
			for i := 0; i < slot; i++ {
				if s.V[i] == s.V[slot] {
					return false
				}
			}
			return true
		})
	}
	for v := 0; v < 4; v++ {
		emb = weighted.Join(emb, eagerDegrees(use, bucket),
			func(s star) graph.Node { return s.V[v] },
			func(d nodeDeg) graph.Node { return d.Key },
			func(s star, d nodeDeg) star {
				s.Degs[v] = d.Result
				return s
			})
	}
	return canonical(weighted.Select(emb, func(s star) queries.DegProfile {
		var p queries.DegProfile
		for i := range p {
			p[i] = -1
		}
		sort.Ints(s.Degs[:])
		copy(p[:], s.Degs[:])
		return p
	}))
}

var eagerReferences = map[string]func(use func() edgeSet, bucket int) (map[string]float64, error){
	"tbi":             eagerTbI,
	"tbd":             eagerTbD,
	"jdd":             eagerJDD,
	"wedges":          eagerWedges,
	"star4-by-degree": eagerStar4,
}

// canonical keys a dataset the way Workload.Exact does.
func canonical[T comparable](d *weighted.Dataset[T]) (map[string]float64, error) {
	out := make(map[string]float64, d.Len())
	for _, p := range d.Pairs() {
		key, err := json.Marshal(p.Record)
		if err != nil {
			return nil, err
		}
		out[string(key)] = p.Weight
	}
	return out, nil
}

// TestLazyQueryEqualsEagerComposition holds the lazy one-shot plans to
// the eager specification: for every registered workload, on two random
// graphs, the core query's exact output equals the weighted.*
// composition record for record to 1e-12 (they sum the same terms, in
// different groupings), and the budget a measurement charges equals the
// number of times the composition reads the edge dataset.
func TestLazyQueryEqualsEagerComposition(t *testing.T) {
	hk, err := graph.HolmeKim(40, 3, 0.6, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	er, err := graph.ErdosRenyi(30, 90, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"holme-kim": hk, "erdos-renyi": er}
	for _, w := range workload.All() {
		ref, ok := eagerReferences[w.Name]
		if !ok {
			t.Errorf("workload %q has no eager weighted.* reference in this test: add one", w.Name)
			continue
		}
		bucket := 0
		if w.Bucketed {
			bucket = 2
		}
		for gname, g := range graphs {
			t.Run(w.Name+"/"+gname, func(t *testing.T) {
				edges := graph.SymmetricEdges(g)
				uses := 0
				want, err := ref(func() edgeSet { uses++; return edges }, bucket)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Exact(g, bucket)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatal("eager reference is empty: the comparison is vacuous")
				}
				for k, ww := range want {
					if gw, ok := got[k]; !ok || math.Abs(gw-ww) > 1e-12 {
						t.Errorf("record %s: lazy %v (present %v), eager %v", k, gw, ok, ww)
					}
				}
				for k, gw := range got {
					if _, ok := want[k]; !ok {
						t.Errorf("record %s = %v only in the lazy query", k, gw)
					}
				}

				if uses != w.Uses {
					t.Errorf("eager composition reads the edge dataset %d times, workload registers %d uses", uses, w.Uses)
				}
				const eps = 0.25
				src := budget.NewSource("edges", 100)
				if _, err := w.Measure(core.FromDataset(edges, src), bucket, eps, rand.New(rand.NewSource(1))); err != nil {
					t.Fatal(err)
				}
				if got, want := src.Spent(), float64(uses)*eps; math.Abs(got-want) > 1e-9 {
					t.Errorf("lazy measurement charged %v, eager composition's uses cost %v", got, want)
				}
			})
		}
	}
}
