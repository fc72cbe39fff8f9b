package workload_test

import (
	"math/rand"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/workload"
)

// maskNames maps a fuzz-chosen bitmask onto a subset of the registry in
// sorted-name order (bit i selects Names()[i]).
func maskNames(mask uint8) []string {
	all := workload.Names()
	var names []string
	for i, name := range all {
		if mask&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return names
}

// FuzzFusedEquivalence feeds random workload subsets and random small
// graphs through a fused plan and its per-workload-pipeline twin and
// requires equivalent fit scores and collected outputs — initially and
// after edge swaps — with no panics. The seed corpus pins the edge
// cases the planner must not mishandle: every single-workload set
// (nothing to fuse), a set whose members share no fragment, and the
// full registry.
func FuzzFusedEquivalence(f *testing.F) {
	// Sorted registry order: jdd, star4-by-degree, tbd, tbi, wedges.
	for i := 0; i < 5; i++ {
		f.Add(uint8(1<<i), int64(3), uint8(6), uint8(2)) // singletons
	}
	f.Add(uint8(1|16), int64(5), uint8(9), uint8(0)) // jdd+wedges: empty overlap
	f.Add(uint8(4|8), int64(7), uint8(12), uint8(3)) // tbd+tbi: shared paths
	f.Add(uint8(31), int64(11), uint8(4), uint8(2))  // full registry
	f.Fuzz(func(t *testing.T, mask uint8, seed int64, size uint8, bucket uint8) {
		names := maskNames(mask & 31)
		if len(names) == 0 {
			t.Skip("empty workload set")
		}
		const eps = 1.0
		nodes := 8 + int(size%12)
		g, err := graph.ErdosRenyi(nodes, 2*nodes, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Skip(err)
		}
		b := int(bucket % 4)
		fits := measureFits(t, g, names, b, eps, seed+1)

		fused, _, fusedCols := fusePlan(t, fits, true, eps, 23)
		plain, _, plainCols := fusePlan(t, fits, false, eps, 23)
		fused.Input().PushDataset(graph.SymmetricEdges(g))
		plain.Input().PushDataset(graph.SymmetricEdges(g))

		compare := func(step int) {
			t.Helper()
			fs, ps := fused.Scorer().Score(), plain.Scorer().Score()
			if !scoresClose(fs, ps) {
				t.Fatalf("step %d: workloads %v bucket %d: fused score %v, unfused %v", step, names, b, fs, ps)
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

		rng := rand.New(rand.NewSource(seed + 2))
		edges := g.EdgeList()
		for step := 0; step < 3; step++ {
			ei, ej := rng.Intn(len(edges)), rng.Intn(len(edges))
			if ei == ej {
				continue
			}
			a, bb := edges[ei].Src, edges[ei].Dst
			c, d := edges[ej].Src, edges[ej].Dst
			if a == d || c == bb || a == c || bb == d || g.HasEdge(a, d) || g.HasEdge(c, bb) {
				continue
			}
			g.RemoveEdge(a, bb)
			g.RemoveEdge(c, d)
			g.AddEdge(a, d)
			g.AddEdge(c, bb)
			edges[ei] = graph.Edge{Src: a, Dst: d}
			edges[ej] = graph.Edge{Src: c, Dst: bb}
			diff := swapDiffs(a, bb, c, d)
			fused.Input().Push(diff)
			plain.Input().Push(diff)
			compare(step)
		}

		// The unfused twin answers the same requests, so the memos must
		// agree on the would-be DAG regardless of subset.
		if fs, ps := fused.Fusion().Stats(), plain.Fusion().Stats(); fs.Requests != ps.Requests || fs.Fragments != ps.Fragments {
			t.Fatalf("memo DAGs diverge: fused %+v, unfused %+v", fs, ps)
		}
	})
}
