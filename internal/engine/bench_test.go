package engine

import (
	"math/rand"
	"testing"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Micro-benchmarks of single stateful operators under bulk batches: the
// per-operator view of the bulk load at the repository root
// (BenchmarkBulkLoad).

// benchSink defeats dead-code elimination.
var benchSink float64

func benchBatch(n, dom int) []incremental.Delta[int] {
	rng := rand.New(rand.NewSource(11))
	batch := make([]incremental.Delta[int], n)
	for i := range batch {
		batch[i] = incremental.Delta[int]{Record: rng.Intn(dom), Weight: rng.Float64() + 0.1}
	}
	return batch
}

func BenchmarkShaveLoad(b *testing.B) {
	batch := benchBatch(1<<16, 1<<13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		in := NewInput[int](e)
		out := incremental.Collect[weighted.Indexed[int]](ShaveConst[int](in, 1))
		in.Push(batch)
		benchSink = out.Norm()
	}
}

func BenchmarkGroupByLoad(b *testing.B) {
	batch := benchBatch(1<<16, 1<<13)
	key := func(x int) int { return x >> 3 }
	reduce := func(m []int) int { return len(m) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		in := NewInput[int](e)
		out := incremental.Collect[weighted.Grouped[int, int]](GroupBy[int, int, int](in, key, reduce))
		in.Push(batch)
		benchSink = out.Norm()
	}
}

func BenchmarkJoinLoad(b *testing.B) {
	pair := func(x, y int) [2]int { return [2]int{x, y} }
	// groups=8: a self-join on a moderate key space, each key group
	// holding ~8 records, so the load exercises the slow path's outer
	// products. singleton: JDD's shape — directed edges, keyed by the
	// edge on the left and by its reverse on the right, so that every key
	// group holds one record a side, and a reduce that merges the pairs
	// into a few thousand records, as JDD's degree pairs do.
	for _, row := range []struct {
		name       string
		batch      []incremental.Delta[int]
		keyA, keyB func(int) int
		reduce     func(x, y int) [2]int
	}{
		{"groups=8", benchBatch(1<<14, 1<<12), func(x int) int { return x >> 3 }, func(x int) int { return x >> 3 }, pair},
		{"singleton", benchEdges(4000, 20000),
			func(e int) int { return e },
			func(e int) int { return e&(1<<16-1)<<16 | e>>16 },
			func(x, y int) [2]int { return [2]int{x >> 16 % 64, y >> 16 % 64} }},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := New()
				in := NewInput[int](e)
				out := incremental.Collect[[2]int](Join[int, int, int, [2]int](in, in, row.keyA, row.keyB, row.reduce))
				in.Push(row.batch)
				benchSink = out.Norm()
			}
			// Each record enters the self-join twice, once a side.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(row.batch)), "ns/record")
		})
	}
}

// benchEdges returns m distinct random undirected edges on n < 2¹⁶
// vertices, each as its two directed records src<<16 | dst at unit
// weight.
func benchEdges(n, m int) []incremental.Delta[int] {
	rng := rand.New(rand.NewSource(11))
	seen := map[int]bool{}
	var batch []incremental.Delta[int]
	for len(batch) < 2*m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || seen[u<<16|v] {
			continue
		}
		seen[u<<16|v], seen[v<<16|u] = true, true
		batch = append(batch, incremental.Delta[int]{Record: u<<16 | v, Weight: 1}, incremental.Delta[int]{Record: v<<16 | u, Weight: 1})
	}
	return batch
}
