package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"wpinq/internal/incremental"
	"wpinq/internal/weighted"
)

// Equivalence tests: drive the engine with random update sequences and
// require that every collected output equals the reference
// transformation (internal/weighted, the executable specification)
// applied to the accumulated input.

const eqTol = 1e-8

// rows names the subtests every equivalence test runs. The names are
// those of the shard layouts the engine once partitioned its state into,
// kept because test ids outlive what they named. Every row runs the one
// engine there is; row i draws its random updates from the test's seed
// plus rowSalt*i, so the rows are independent trials, and the first row
// replays the test's own seed.
var rows = []string{"shards=1,cutoff=512", "shards=2,cutoff=512", "shards=3,cutoff=0", "shards=8,cutoff=0"}

const rowSalt = 1000

// forEachConfig runs f as a subtest per row, with a fresh engine and the
// row's seed offset.
func forEachConfig(t *testing.T, f func(t *testing.T, e *Engine, salt int64)) {
	for i, name := range rows {
		t.Run(name, func(t *testing.T) { f(t, New(), rowSalt*int64(i)) })
	}
}

// randBatch produces a batch of nb random differences over records
// [0, dom).
func randBatch(rng *rand.Rand, dom, nb int) []incremental.Delta[int] {
	batch := make([]incremental.Delta[int], nb)
	for i := range batch {
		w := rng.NormFloat64() * 2
		if rng.Intn(4) == 0 {
			w = float64(rng.Intn(5) - 2)
		}
		batch[i] = incremental.Delta[int]{Record: rng.Intn(dom), Weight: w}
	}
	return batch
}

// nonNegBatch produces a batch keeping every accumulated weight in ref
// non-negative, as required by the GroupBy/Shave/Join stability
// semantics; the batch is applied to ref as it is drawn.
func nonNegBatch(rng *rand.Rand, ref *weighted.Dataset[int], dom, nb int) []incremental.Delta[int] {
	batch := make([]incremental.Delta[int], 0, nb)
	for i := 0; i < nb; i++ {
		x := rng.Intn(dom)
		delta := rng.Float64()*3 - 1
		if cur := ref.Weight(x); cur+delta < 0 {
			delta = -cur
		}
		batch = append(batch, incremental.Delta[int]{Record: x, Weight: delta})
		ref.Add(x, delta)
	}
	return batch
}

func applyToReference(ref *weighted.Dataset[int], batch []incremental.Delta[int]) {
	for _, d := range batch {
		ref.Add(d.Record, d.Weight)
	}
}

// checkUnary drives one operator chain with random batches and compares
// against the reference after every round.
func checkUnary[U comparable](
	t *testing.T,
	name string,
	build func(e *Engine, src Source[int]) Source[U],
	reference func(*weighted.Dataset[int]) *weighted.Dataset[U],
	nonNegative bool,
	seed int64,
) {
	t.Helper()
	forEachConfig(t, func(t *testing.T, e *Engine, salt int64) {
		rng := rand.New(rand.NewSource(seed + salt))
		in := NewInput[int](e)
		out := incremental.Collect[U](build(e, in))
		ref := weighted.New[int]()
		for step := 0; step < 50; step++ {
			var batch []incremental.Delta[int]
			if nonNegative {
				batch = nonNegBatch(rng, ref, 8, 1+rng.Intn(6))
			} else {
				batch = randBatch(rng, 8, 1+rng.Intn(6))
				applyToReference(ref, batch)
			}
			in.Push(batch)
			want := reference(ref)
			if !weighted.Equal(out.Snapshot(), want, eqTol) {
				t.Fatalf("%s diverged at step %d:\nengine:    %v\nreference: %v",
					name, step, out.Snapshot(), want)
			}
		}
	})
}

func TestSelectEquivalence(t *testing.T) {
	f := func(x int) int { return x % 3 }
	checkUnary(t, "Select",
		func(e *Engine, s Source[int]) Source[int] { return Select[int, int](s, f) },
		func(d *weighted.Dataset[int]) *weighted.Dataset[int] { return weighted.Select(d, f) },
		false, 1)
}

func TestWhereEquivalence(t *testing.T) {
	p := func(x int) bool { return x%2 == 0 }
	checkUnary(t, "Where",
		func(e *Engine, s Source[int]) Source[int] { return Where[int](s, p) },
		func(d *weighted.Dataset[int]) *weighted.Dataset[int] { return weighted.Where(d, p) },
		false, 2)
}

func TestSelectManyEquivalence(t *testing.T) {
	f := func(x int) []int {
		out := make([]int, x+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	checkUnary(t, "SelectMany",
		func(e *Engine, s Source[int]) Source[int] { return SelectManySlice[int, int](s, f) },
		func(d *weighted.Dataset[int]) *weighted.Dataset[int] { return weighted.SelectManySlice(d, f) },
		false, 3)
}

func TestShaveEquivalence(t *testing.T) {
	checkUnary(t, "Shave",
		func(e *Engine, s Source[int]) Source[weighted.Indexed[int]] { return ShaveConst[int](s, 0.6) },
		func(d *weighted.Dataset[int]) *weighted.Dataset[weighted.Indexed[int]] {
			return weighted.ShaveConst(d, 0.6)
		},
		true, 4)
}

func TestGroupByEquivalence(t *testing.T) {
	key := func(x int) int { return x % 2 }
	reduce := func(m []int) int { return len(m) }
	checkUnary(t, "GroupBy",
		func(e *Engine, s Source[int]) Source[weighted.Grouped[int, int]] {
			return GroupBy[int, int, int](s, key, reduce)
		},
		func(d *weighted.Dataset[int]) *weighted.Dataset[weighted.Grouped[int, int]] {
			return weighted.GroupBy(d, key, reduce)
		},
		true, 5)
}

// TestUnionIntersectEquivalence checks Intersect against the reference.
// Union left the executor with Concat and Except: no analysis lowers to
// them, and their semantics stay pinned in wpinq/internal/weighted and
// core.
func TestUnionIntersectEquivalence(t *testing.T) {
	forEachConfig(t, func(t *testing.T, e *Engine, salt int64) {
		rng := rand.New(rand.NewSource(7 + salt))
		inA := NewInput[int](e)
		inB := NewInput[int](e)
		outInter := incremental.Collect[int](Intersect[int](inA, inB))
		refA, refB := weighted.New[int](), weighted.New[int]()
		for step := 0; step < 60; step++ {
			ba := randBatch(rng, 6, 2)
			bb := randBatch(rng, 6, 2)
			inA.Push(ba)
			inB.Push(bb)
			applyToReference(refA, ba)
			applyToReference(refB, bb)
			if !weighted.Equal(outInter.Snapshot(), weighted.Intersect(refA, refB), eqTol) {
				t.Fatalf("Intersect diverged at step %d:\nengine:    %v\nreference: %v",
					step, outInter.Snapshot(), weighted.Intersect(refA, refB))
			}
		}
	})
}

func joinKey(x int) int { return x % 3 }

// TestJoinEquivalence checks Join against the reference. Its one row
// keeps the name it had when a switch could turn the fast path off: the
// fast path is always on now, and test ids outlive what they named.
func TestJoinEquivalence(t *testing.T) {
	reduce := func(x, y int) [2]int { return [2]int{x, y} }
	t.Run("fastPath=true", func(t *testing.T) {
		forEachConfig(t, func(t *testing.T, e *Engine, salt int64) {
			rng := rand.New(rand.NewSource(8 + salt))
			inA := NewInput[int](e)
			inB := NewInput[int](e)
			out := incremental.Collect[[2]int](Join[int, int, int, [2]int](inA, inB, joinKey, joinKey, reduce))
			refA, refB := weighted.New[int](), weighted.New[int]()
			for step := 0; step < 60; step++ {
				ba := nonNegBatch(rng, refA, 8, 1+rng.Intn(3))
				bb := nonNegBatch(rng, refB, 8, 1+rng.Intn(3))
				inA.Push(ba)
				inB.Push(bb)
				want := weighted.Join(refA, refB, joinKey, joinKey, reduce)
				if !weighted.Equal(out.Snapshot(), want, eqTol) {
					t.Fatalf("Join diverged at step %d:\nengine:    %v\nreference: %v",
						step, out.Snapshot(), want)
				}
			}
		})
	})
}

func TestJoinSelfJoinEquivalence(t *testing.T) {
	// Both sides subscribed to the same stream: the length-two-paths
	// idiom every graph pipeline is built on.
	type edge struct{ s, d int }
	type path struct{ a, b, c int }
	srcKey := func(e edge) int { return e.s }
	dstKey := func(e edge) int { return e.d }
	mkPath := func(x, y edge) path { return path{x.s, x.d, y.d} }
	forEachConfig(t, func(t *testing.T, e *Engine, salt int64) {
		rng := rand.New(rand.NewSource(9 + salt))
		in := NewInput[edge](e)
		j := Join[edge, edge, int, path](in, in, dstKey, srcKey, mkPath)
		out := incremental.Collect[path](j)
		ref := weighted.New[edge]()
		for step := 0; step < 50; step++ {
			ed := edge{rng.Intn(5), rng.Intn(5)}
			cur := ref.Weight(ed)
			delta := float64(rng.Intn(3) - 1)
			if cur+delta < 0 {
				delta = -cur
			}
			b := []incremental.Delta[edge]{{Record: ed, Weight: delta}}
			in.Push(b)
			ref.Add(ed, delta)
			want := weighted.Join(ref, ref, dstKey, srcKey, mkPath)
			if !weighted.Equal(out.Snapshot(), want, eqTol) {
				t.Fatalf("self-Join diverged at step %d:\nengine:    %v\nreference: %v",
					step, out.Snapshot(), want)
			}
		}
	})
}

// TestLoadEmissionChangesHands covers the one place a batch is kept by
// its receiver: a load whose emission is past the retention bound is
// released by the node's body and taken, not copied, by the node's
// output buffer. The load must read like the reference downstream of two
// more operators, and the buffers must be the engine's own afterwards —
// transactional pushes that reuse them, commits, aborts and a second
// load all keep agreeing with the reference.
func TestLoadEmissionChangesHands(t *testing.T) {
	type edge struct{ s, d int }
	type path struct{ a, b, c int }
	srcKey := func(e edge) int { return e.s }
	dstKey := func(e edge) int { return e.d }
	mkPath := func(x, y edge) path { return path{x.s, x.d, y.d} }
	open := func(p path) bool { return p.a != p.c }
	ends := func(p path) [2]int { return [2]int{p.a, p.c} }
	forEachConfig(t, func(t *testing.T, e *Engine, salt int64) {
		in := NewInput[edge](e)
		j := Join[edge, edge, int, path](in, in, dstKey, srcKey, mkPath)
		out := incremental.Collect[[2]int](Select(Where[path](j, open), ends))
		ref := weighted.New[edge]()
		check := func(when string) {
			t.Helper()
			paths := weighted.Join(ref, ref, dstKey, srcKey, mkPath)
			if want := weighted.Select(weighted.Where(paths, open), ends); !weighted.Equal(out.Snapshot(), want, eqTol) {
				t.Fatalf("%s: engine diverged from the reference (%d vs %d records)", when, out.Snapshot().Len(), want.Len())
			}
		}
		push := func(n, from int) {
			var batch []incremental.Delta[edge]
			for v := from; v < from+n; v++ { // a ring lattice: 12 paths in, 12 out per vertex
				for k := 1; k <= 6; k++ {
					w := from + (v-from+k)%n
					batch = append(batch,
						incremental.Delta[edge]{Record: edge{v, w}, Weight: 1},
						incremental.Delta[edge]{Record: edge{w, v}, Weight: 1})
				}
			}
			for _, d := range batch {
				ref.Add(d.Record, d.Weight)
			}
			in.Push(batch)
		}
		push(200, 0) // 28 800 paths: far past the retention bound
		check("after the load")
		rng := rand.New(rand.NewSource(10 + salt))
		for step := 0; step < 12; step++ {
			ed := edge{rng.Intn(200), rng.Intn(200)}
			delta := 1.0
			if ref.Weight(ed) > 0 {
				delta = -1
			}
			in.Begin()
			in.Push([]incremental.Delta[edge]{{Record: ed, Weight: delta}})
			if step%3 == 0 {
				in.Abort()
			} else {
				in.Commit()
				ref.Add(ed, delta)
			}
			check(fmt.Sprintf("after proposal %d", step))
		}
		push(150, 1000)
		check("after a second load")
	})
}

func TestDeepPipelineEquivalence(t *testing.T) {
	// Select -> Where -> GroupBy -> Shave: heterogeneous stateful
	// operators chained.
	sel := func(x int) int { return x % 5 }
	whr := func(x int) bool { return x != 3 }
	key := func(x int) int { return x % 2 }
	red := func(m []int) int { return len(m) }
	reference := func(d *weighted.Dataset[int]) *weighted.Dataset[weighted.Indexed[weighted.Grouped[int, int]]] {
		return weighted.ShaveConst(weighted.GroupBy(weighted.Where(weighted.Select(d, sel), whr), key, red), 0.25)
	}
	checkUnary(t, "deep pipeline",
		func(e *Engine, s Source[int]) Source[weighted.Indexed[weighted.Grouped[int, int]]] {
			return ShaveConst[weighted.Grouped[int, int]](
				GroupBy[int, int, int](Where[int](Select[int, int](s, sel), whr), key, red), 0.25)
		},
		reference, true, 10)
}

// TestRandomPipelineEquivalence builds randomized operator DAGs over int
// streams from every operator the engine has, and checks weight-level
// agreement with the reference semantics after every round. Two streams
// reconverge through Intersect or Join (they reconverged through Union
// and Concat until those left the executor). All intermediate streams
// stay non-negative so the stability semantics are defined everywhere.
func TestRandomPipelineEquivalence(t *testing.T) {
	type stream struct {
		src Source[int]
		ref func(*weighted.Dataset[int]) *weighted.Dataset[int]
	}
	selectors := []func(int) int{
		func(x int) int { return x % 7 },
		func(x int) int { return x / 2 },
		func(x int) int { return x*3 + 1 },
	}
	predicates := []func(int) bool{
		func(x int) bool { return x%2 == 0 },
		func(x int) bool { return x < 5 },
		func(x int) bool { return x != 1 },
	}
	expand := func(x int) []int {
		out := make([]int, x%4+1)
		for i := range out {
			out[i] = x + i
		}
		return out
	}
	gKey := func(x int) int { return x % 3 }
	gRed := func(m []int) int { return len(m) }
	unIndex := func(ix weighted.Indexed[int]) int { return ix.Value*10 + ix.Index%10 }
	unGroup := func(g weighted.Grouped[int, int]) int { return g.Key*10 + g.Result }
	jKey := func(x int) int { return x % 2 }
	jRed := func(x, y int) [2]int { return [2]int{x, y} }
	unPair := func(p [2]int) int { return (p[0] + 3*p[1]) % 11 }

	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			forEachConfig(t, func(t *testing.T, e *Engine, salt int64) {
				rng := rand.New(rand.NewSource(100 + int64(trial) + salt))
				in := NewInput[int](e)
				streams := []stream{{
					src: in,
					ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] { return d },
				}}
				depth := 3 + rng.Intn(4)
				for i := 0; i < depth; i++ {
					base := streams[rng.Intn(len(streams))]
					var next stream
					switch op := rng.Intn(8); op {
					case 0:
						f := selectors[rng.Intn(len(selectors))]
						next = stream{
							src: Select[int, int](base.src, f),
							ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] {
								return weighted.Select(base.ref(d), f)
							},
						}
					case 1:
						p := predicates[rng.Intn(len(predicates))]
						next = stream{
							src: Where[int](base.src, p),
							ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] {
								return weighted.Where(base.ref(d), p)
							},
						}
					case 2:
						next = stream{
							src: SelectManySlice[int, int](base.src, expand),
							ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] {
								return weighted.SelectManySlice(base.ref(d), expand)
							},
						}
					case 3:
						next = stream{
							src: Select[weighted.Indexed[int], int](ShaveConst[int](base.src, 0.5), unIndex),
							ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] {
								return weighted.Select(weighted.ShaveConst(base.ref(d), 0.5), unIndex)
							},
						}
					case 4:
						next = stream{
							src: Select[weighted.Grouped[int, int], int](GroupBy[int, int, int](base.src, gKey, gRed), unGroup),
							ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] {
								return weighted.Select(weighted.GroupBy(base.ref(d), gKey, gRed), unGroup)
							},
						}
					case 5:
						other := streams[rng.Intn(len(streams))]
						next = stream{
							src: Intersect[int](base.src, other.src),
							ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] {
								return weighted.Intersect(base.ref(d), other.ref(d))
							},
						}
					case 6:
						other := streams[rng.Intn(len(streams))]
						next = stream{
							src: Select[[2]int, int](Join[int, int, int, [2]int](base.src, other.src, jKey, jKey, jRed), unPair),
							ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] {
								return weighted.Select(weighted.Join(base.ref(d), other.ref(d), jKey, jKey, jRed), unPair)
							},
						}
					case 7:
						next = stream{
							src: Select[[2]int, int](Join[int, int, int, [2]int](base.src, base.src, jKey, jKey, jRed), unPair),
							ref: func(d *weighted.Dataset[int]) *weighted.Dataset[int] {
								b := base.ref(d)
								return weighted.Select(weighted.Join(b, b, jKey, jKey, jRed), unPair)
							},
						}
					}
					streams = append(streams, next)
				}
				// Collect every stream, not just the last: interior
				// divergence must not be masked by a forgiving tail.
				collectors := make([]*incremental.Collector[int], len(streams))
				for i, s := range streams {
					collectors[i] = incremental.Collect[int](s.src)
				}
				ref := weighted.New[int]()
				for step := 0; step < 25; step++ {
					in.Push(nonNegBatch(rng, ref, 9, 1+rng.Intn(5)))
					for i, s := range streams {
						want := s.ref(ref)
						if !weighted.Equal(collectors[i].Snapshot(), want, eqTol) {
							t.Fatalf("stream %d diverged at step %d:\nengine:    %v\nreference: %v",
								i, step, collectors[i].Snapshot(), want)
						}
					}
				}
			})
		})
	}
}
