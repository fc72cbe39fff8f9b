package incremental_test

import (
	"math/rand"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Graphs of several operator bodies, built the one way a graph is built —
// on an engine — and terminated in this
// package's Collector: long random update sequences against the reference
// semantics, inverse-push rollback, and transactions through shapes in
// which a node is reached along more than one path.

type delta = incremental.Delta[int]

func TestDeepPipelineEquivalence(t *testing.T) {
	// Chain GroupBy -> Shave -> GroupBy: differences propagate through
	// heterogeneous stateful operators.
	type shaved = weighted.Indexed[weighted.Grouped[int, int]]
	key := func(x int) int { return x % 2 }
	count := func(m []int) int { return len(m) }
	index := func(s shaved) int { return s.Index }
	keys := func(m []shaved) int { return len(m) }
	rng := rand.New(rand.NewSource(10))
	in := engine.NewInput[int](engine.New())
	out := incremental.Collect(engine.GroupBy(engine.ShaveConst(engine.GroupBy(in, key, count), 0.25), index, keys))

	ref := weighted.New[int]()
	for step := 0; step < 60; step++ {
		x := rng.Intn(5)
		cur := ref.Weight(x)
		w := rng.Float64() - 0.3
		if cur+w < 0 {
			w = -cur
		}
		in.Push([]delta{{Record: x, Weight: w}})
		ref.Add(x, w)
		want := weighted.GroupBy(weighted.ShaveConst(weighted.GroupBy(ref, key, count), 0.25), index, keys)
		if !weighted.Equal(out.Snapshot(), want, 1e-8) {
			t.Fatalf("deep pipeline diverged at step %d", step)
		}
	}
}

func TestDeepChainLongRun(t *testing.T) {
	// GroupBy -> Shave -> GroupBy -> Join(with its own Intersect)
	type shaved = weighted.Indexed[weighted.Grouped[int, int]]
	key := func(x int) int { return x % 3 }
	count := func(m []int) int { return len(m) }
	index := func(s shaved) int { return s.Index }
	keys := func(m []shaved) int { return len(m) }
	result := func(g weighted.Grouped[int, int]) int { return g.Result }
	pair := func(a, b weighted.Grouped[int, int]) [2]int { return [2]int{a.Key, b.Key} }
	rng := rand.New(rand.NewSource(100))
	in := engine.NewInput[int](engine.New())
	grp := engine.GroupBy(in, key, count)
	flat := engine.GroupBy(engine.ShaveConst(grp, 0.4), index, keys)
	both := engine.Intersect[weighted.Grouped[int, int]](flat, grp)
	out := incremental.Collect(engine.Join(flat, both, result, result, pair))

	ref := weighted.New[int]()
	for step := 0; step < 3000; step++ {
		x := rng.Intn(7)
		cur := ref.Weight(x)
		w := rng.Float64()*2 - 0.8
		if cur+w < 0 {
			w = -cur
		}
		in.Push([]delta{{Record: x, Weight: w}})
		ref.Add(x, w)
	}
	// Reference evaluation of the same pipeline.
	rgrp := weighted.GroupBy(ref, key, count)
	rflat := weighted.GroupBy(weighted.ShaveConst(rgrp, 0.4), index, keys)
	want := weighted.Join(rflat, weighted.Intersect(rflat, rgrp), result, result, pair)
	if !weighted.Equal(out.Snapshot(), want, 1e-6) {
		t.Errorf("deep chain diverged after 3000 updates:\nincremental: %v\nreference:   %v",
			out.Snapshot(), want)
	}
}

func TestDiamondTopology(t *testing.T) {
	// One input fans out to two branches that reconverge through a join:
	// exercises multiple subscriptions and reconvergent updates.
	keyL := func(s weighted.Indexed[int]) int { return s.Value % 4 }
	keyR := func(y int) int { return y % 4 }
	pair := func(s weighted.Indexed[int], y int) [2]int { return [2]int{s.Value*8 + s.Index, y} }
	rng := rand.New(rand.NewSource(101))
	in := engine.NewInput[int](engine.New())
	out := incremental.Collect[[2]int](engine.Join(engine.ShaveConst(in, 0.5), in, keyL, keyR, pair))

	ref := weighted.New[int]()
	for step := 0; step < 2000; step++ {
		x := rng.Intn(12)
		cur := ref.Weight(x)
		w := rng.Float64() - 0.4
		if cur+w < 0 {
			w = -cur
		}
		in.Push([]delta{{Record: x, Weight: w}})
		ref.Add(x, w)
	}
	want := weighted.Join(weighted.ShaveConst(ref, 0.5), ref, keyL, keyR, pair)
	if !weighted.Equal(out.Snapshot(), want, 1e-6) {
		t.Error("diamond topology diverged after 2000 updates")
	}
}

// diamond derives a second stream from s with a self-join and reconverges
// the two through Intersects and a second join: every node downstream of
// s is reached along more than one path. (It reconverged through Union
// until Union left the executor.)
func diamond(s engine.Source[int]) engine.Source[int] {
	mod2 := func(x int) int { return x % 2 }
	mixed := engine.Join(s, s, mod2, mod2, func(x, y int) int { return (x + y) % 10 })
	low := engine.Intersect[int](s, mixed)
	return engine.Intersect[int](engine.Join(low, s, mod2, mod2, func(x, y int) int { return (x * y) % 10 }), mixed)
}

type tbiPath struct{ a, b, c int }

// tbiShape is TbI's paths join intersected with its own rotation (the
// rotation a second join, reducing to the rotated path).
func tbiShape(s engine.Source[int]) engine.Source[tbiPath] {
	keyA, keyB := func(x int) int { return x % 5 }, func(y int) int { return (y + 1) % 5 }
	paths := engine.Join(s, s, keyA, keyB, func(x, y int) tbiPath { return tbiPath{x, x % 5, y} })
	rotated := engine.Join(s, s, keyA, keyB, func(x, y int) tbiPath { return tbiPath{x % 5, y, x} })
	return engine.Intersect[tbiPath](rotated, paths)
}

// checkRollback drives a graph with a base load, then cycles of batch +
// inverse, asserting the collected output returns to baseline: the
// safety property an untracked rejection path depends on (Section 4.3).
func checkRollback[U comparable](t *testing.T, name string, build func(engine.Source[int]) engine.Source[U]) {
	t.Helper()
	rng := rand.New(rand.NewSource(60))
	in := engine.NewInput[int](engine.New())
	out := incremental.Collect[U](build(in))
	// Base load keeps weights non-negative overall.
	var base []delta
	for i := 0; i < 10; i++ {
		base = append(base, delta{Record: i, Weight: 2 + rng.Float64()*3})
	}
	in.Push(base)
	baseline := out.Snapshot()
	for cycle := 0; cycle < 200; cycle++ {
		batch := make([]delta, 1+rng.Intn(3))
		inverse := make([]delta, len(batch))
		for i := range batch {
			batch[i] = delta{Record: rng.Intn(10), Weight: rng.Float64()*2 - 1}
			inverse[i] = delta{Record: batch[i].Record, Weight: -batch[i].Weight}
		}
		in.Push(batch)
		in.Push(inverse)
	}
	if !weighted.Equal(out.Snapshot(), baseline, 1e-7) {
		t.Errorf("%s did not roll back:\nafter:    %v\nbaseline: %v", name, out.Snapshot(), baseline)
	}
}

func TestRollbackUnionIntersect(t *testing.T) {
	checkRollback(t, "Join+Intersect diamond", diamond)
}

func TestRollbackDeepTbIShape(t *testing.T) {
	// The stateful part of the operator shape MCMC rolls back through.
	checkRollback(t, "TbI-shape", tbiShape)
}

// checkTxn drives two identical graphs: the subject sees speculative
// batches inside transactions (randomly committed or aborted), the twin
// sees only the committed ones, pushed plainly. After every transaction
// and at the end, collected outputs must match bit-for-bit; a final
// probe batch pushed to both must produce identical collected state,
// proving aborts also restored the operators' internal emission order.
func checkTxn[U comparable](t *testing.T, name string, build func(engine.Source[int]) engine.Source[U]) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))

	subjectIn := engine.NewInput[int](engine.New())
	subjectOut := incremental.Collect[U](build(subjectIn))
	twinIn := engine.NewInput[int](engine.New())
	twinOut := incremental.Collect[U](build(twinIn))
	same := func(when string) {
		t.Helper()
		if got, want := subjectOut.Snapshot(), twinOut.Snapshot(); !weighted.Equal(got, want, 0) {
			t.Fatalf("%s %s: not bit-identical\ngot:  %v\nwant: %v", name, when, got, want)
		}
	}

	var base []delta
	for i := 0; i < 10; i++ {
		base = append(base, delta{Record: i, Weight: 2 + rng.Float64()*3})
	}
	subjectIn.Push(base)
	twinIn.Push(base)

	for cycle := 0; cycle < 300; cycle++ {
		// One transaction: one to three speculative batches.
		subjectIn.Begin()
		batches := make([][]delta, 1+rng.Intn(3))
		for bi := range batches {
			batch := make([]delta, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = delta{Record: rng.Intn(10), Weight: rng.Float64()*2 - 1}
			}
			batches[bi] = batch
			subjectIn.Push(batch)
		}
		if rng.Intn(2) == 0 {
			subjectIn.Commit()
			for _, batch := range batches {
				twinIn.Push(batch)
			}
		} else {
			subjectIn.Abort()
		}
		same("after a transaction")
	}

	// Probe: identical future inputs must produce identical outputs.
	probe := []delta{{Record: 3, Weight: 0.25}, {Record: 7, Weight: -0.5}, {Record: 11, Weight: 1.5}}
	subjectIn.Push(probe)
	twinIn.Push(probe)
	same("probe")
}

func TestTxnUnionIntersectDiamond(t *testing.T) {
	// Diamond topology: each body must be told an event once, however
	// many paths reach it, or aborts would double-restore.
	checkTxn(t, "Join+Intersect diamond", diamond)
}

func TestTxnDeepTbIShape(t *testing.T) {
	// The stateful part of the operator shape MCMC aborts through.
	checkTxn(t, "TbI-shape", tbiShape)
}

// TestTriangleStateScalesWithSumDegreeSquares reproduces the paper's
// Section 4.3 complexity claim — the triangle pipelines' operator state
// scales with the number of length-two paths (sum over vertices of
// d(d-1)), not with the edge count: on a star graph K_{1,d}, the
// TbI-shaped intersect state holds all length-two paths twice —
// 2*d*(d+1) records, counting the degenerate a = c ones TbI filters out
// before this point — while the join holds only the 2*2d directed edge
// records.
func TestTriangleStateScalesWithSumDegreeSquares(t *testing.T) {
	type edge struct{ s, d int }
	type path struct{ a, b, c int }
	build := func(d int) (joinSize, intersectSize int) {
		in := engine.NewInput[edge](engine.New())
		dst, src := func(e edge) int { return e.d }, func(e edge) int { return e.s }
		j := engine.Join(in, in, dst, src, func(x, y edge) path { return path{x.s, x.d, y.d} })
		rotated := engine.Join(in, in, dst, src, func(x, y edge) path { return path{x.d, y.d, x.s} })
		tri := engine.Intersect[path](rotated, j)
		var batch []incremental.Delta[edge]
		for i := 1; i <= d; i++ {
			batch = append(batch,
				incremental.Delta[edge]{Record: edge{0, i}, Weight: 1},
				incremental.Delta[edge]{Record: edge{i, 0}, Weight: 1})
		}
		in.Push(batch)
		return j.StateSize(), tri.StateSize()
	}
	for _, d := range []int{5, 10, 20} {
		joinSize, triSize := build(d)
		if want := 2 * 2 * d; joinSize != want {
			t.Errorf("d=%d: join state = %d, want %d (edges, both sides)", d, joinSize, want)
		}
		if want := 2 * d * (d + 1); triSize != want {
			t.Errorf("d=%d: intersect state = %d, want %d (paths, both sides)", d, triSize, want)
		}
	}
}
