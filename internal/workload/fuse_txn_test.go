package workload_test

import (
	"math"
	"math/rand"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/workload"
)

// snapshotsExact compares two collector snapshots bit-for-bit: after an
// abort, the fused DAG's state must be indistinguishable from a twin
// that never speculated, so float tolerance would hide undo-log bugs.
func snapshotsExact(t *testing.T, name string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	for k, w := range want {
		if gw, ok := got[k]; !ok || gw != w {
			t.Fatalf("%s: record %s = %v, want %v (bit-exact)", name, k, gw, w)
		}
	}
}

// FuzzFusedTxnDiamonds drives randomized Begin/Push/Commit-or-Abort
// cycles through the full 5-workload fused plan — whose fan-out diamonds
// (the shared paths and degrees fragments reconverging at binary joins)
// are where a round reaches one node along multiple paths, and where the
// engine's one transaction must still tell each body once — against a
// never-speculated twin that only sees the committed batches. Collected outputs must stay bit-identical, and the subject's
// incrementally maintained fit score must agree with a from-scratch
// recompute. The last argument chose the executor layout when the engine
// had several; it stays so that stored corpus entries still decode.
func FuzzFusedTxnDiamonds(f *testing.F) {
	f.Add(int64(3), []byte{0, 1, 2, 3}, uint8(0))
	f.Add(int64(9), []byte{1, 1, 1, 0, 0, 0, 5, 4}, uint8(1))
	f.Add(int64(27), []byte{255, 254, 3}, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, _ uint8) {
		if len(ops) == 0 {
			t.Skip("no cycles")
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		const (
			eps    = 1.0
			bucket = 2
		)
		g, err := graph.ErdosRenyi(14, 28, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Skip(err)
		}
		fits := measureFits(t, g, workload.Names(), bucket, eps, seed+1)

		subject, _, subjectCols := fusePlan(t, fits, true, eps, 23)
		twin, _, twinCols := fusePlan(t, fits, true, eps, 23)
		subject.Input().PushDataset(graph.SymmetricEdges(g))
		twin.Input().PushDataset(graph.SymmetricEdges(g))

		txn := subject.Input()

		rng := rand.New(rand.NewSource(seed + 2))
		edges := g.EdgeList()
		for _, op := range ops {
			ei, ej := rng.Intn(len(edges)), rng.Intn(len(edges))
			if ei == ej {
				continue
			}
			a, b := edges[ei].Src, edges[ei].Dst
			c, d := edges[ej].Src, edges[ej].Dst
			if op&2 != 0 {
				c, d = d, c
			}
			if a == d || c == b || a == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
				continue
			}
			diff := swapDiffs(a, b, c, d)
			txn.Begin()
			txn.Push(diff)
			if op&1 == 0 {
				txn.Commit()
				twin.Input().Push(diff)
				g.RemoveEdge(a, b)
				g.RemoveEdge(c, d)
				g.AddEdge(a, d)
				g.AddEdge(c, b)
				edges[ei] = graph.Edge{Src: a, Dst: d}
				edges[ej] = graph.Edge{Src: c, Dst: b}
			} else {
				txn.Abort()
			}
		}

		for i := range subjectCols {
			ssnap, err := subjectCols[i].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			tsnap, err := twinCols[i].Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snapshotsExact(t, fits[i].Workload.Name, ssnap, tsnap)
		}

		// Aborted speculation legitimately widens the subject's score
		// baseline (the sink keeps noise observations drawn for records
		// first explored in an aborted transaction — documented sink
		// semantics), so subject and twin scores are not comparable. The
		// subject's maintained score agreeing with a from-scratch
		// recompute is the invariant that catches undo corruption.
		maintained := subject.Scorer().Score()
		recomputed := subject.Scorer().Recompute()
		if math.Abs(maintained-recomputed) > 1e-9*(1+math.Abs(recomputed)) {
			t.Fatalf("maintained score %v, recompute says %v", maintained, recomputed)
		}

		// Probe: future propagation must be bit-identical too.
		if len(edges) > 1 {
			a, b := edges[0].Src, edges[0].Dst
			c, d := edges[1].Src, edges[1].Dst
			if a != d && c != b && a != c && b != d && !g.HasEdge(a, d) && !g.HasEdge(c, b) {
				diff := swapDiffs(a, b, c, d)
				subject.Input().Push(diff)
				twin.Input().Push(diff)
				for i := range subjectCols {
					ssnap, _ := subjectCols[i].Snapshot()
					tsnap, _ := twinCols[i].Snapshot()
					snapshotsExact(t, "probe "+fits[i].Workload.Name, ssnap, tsnap)
				}
			}
		}
	})
}
