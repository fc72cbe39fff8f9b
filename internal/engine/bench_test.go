package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Micro-benchmarks of single sharded operators under bulk batches: the
// per-operator view of the workload benchmarks at the repository root
// (BenchmarkEngineShards). Parallel speedup at N shards requires N CPUs;
// on fewer cores these measure the overhead of routing plus the cache
// benefit of smaller per-shard state.

var benchShardCounts = []int{1, 4}

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

func BenchmarkShaveShards(b *testing.B) {
	batch := benchBatch(1<<16, 1<<13)
	for _, shards := range benchShardCounts {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := New(shards)
				in := NewInput[int](e)
				out := incremental.Collect[weighted.Indexed[int]](ShaveConst[int](in, 1))
				in.Push(batch)
				benchSink = out.Norm()
			}
		})
	}
}

func BenchmarkGroupByShards(b *testing.B) {
	batch := benchBatch(1<<16, 1<<13)
	key := func(x int) int { return x >> 3 }
	reduce := func(m []int) int { return len(m) }
	for _, shards := range benchShardCounts {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := New(shards)
				in := NewInput[int](e)
				out := incremental.Collect[weighted.Grouped[int, int]](GroupBy[int, int, int](in, key, reduce))
				in.Push(batch)
				benchSink = out.Norm()
			}
		})
	}
}

func BenchmarkJoinShards(b *testing.B) {
	// Self-join on a moderate key space: each key group holds ~8 records,
	// so the initial load exercises the slow path's outer products.
	batch := benchBatch(1<<14, 1<<12)
	key := func(x int) int { return x >> 3 }
	reduce := func(x, y int) [2]int { return [2]int{x, y} }
	for _, shards := range benchShardCounts {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := New(shards)
				in := NewInput[int](e)
				out := incremental.Collect[[2]int](Join[int, int, int, [2]int](in, in, key, key, reduce))
				in.Push(batch)
				benchSink = out.Norm()
			}
		})
	}
}
