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
	// Self-join on a moderate key space: each key group holds ~8 records,
	// so the initial load exercises the slow path's outer products.
	batch := benchBatch(1<<14, 1<<12)
	key := func(x int) int { return x >> 3 }
	reduce := func(x, y int) [2]int { return [2]int{x, y} }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		in := NewInput[int](e)
		out := incremental.Collect[[2]int](Join[int, int, int, [2]int](in, in, key, key, reduce))
		in.Push(batch)
		benchSink = out.Norm()
	}
}
