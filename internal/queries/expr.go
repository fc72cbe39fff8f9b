package queries

import (
	"slices"

	"wpinq/internal/core"
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/plan"
	"wpinq/internal/weighted"
)

// Expr is one node of an analysis's operator tree over the symmetric
// edge dataset: the single description of a query. It carries its two
// lowerings — to a core.Collection, for measurement, and to an executor
// stream, for fitting — and nothing else; OneShot and Stream are the
// only ways out, and this file is the only one in the package that names
// an operator constructor of either backend.
//
// A tree is a DAG: a node held in a Go variable and used twice is one
// node, and each lowering builds it once (see lowering.built), so a
// shared sub-query is evaluated once one-shot and is one operator with
// two subscribers in the executor.
type Expr[T comparable] struct{ n *node[T] }

type node[T comparable] struct {
	oneShot func(*lowering) *core.Collection[T]
	stream  func(*lowering) engine.Source[T]
	// below lists the nearest fragments at or under this node, leftmost
	// operand first, the edge root among them: what a fragment wrapped
	// around this node consumes.
	below []input
	// uses is how many times the node reads the edge dataset, set when
	// the node is built (see Uses).
	uses int
}

func op[T comparable](below []input, uses int, oneShot func(*lowering) *core.Collection[T], stream func(*lowering) engine.Source[T]) Expr[T] {
	return Expr[T]{&node[T]{oneShot, stream, below, uses}}
}

// input is one entry of a fragment's input list: its key and, unless it
// is the edge root, how to request it from the memo.
type input struct {
	key     string
	request func(*lowering)
}

// lowering is one walk of a tree to one backend.
type lowering struct {
	memo *plan.Memo // Stream's fragment memo; may be nil
	// built memoises lowered nodes on node identity, for this walk only:
	// two walks (two workloads on a non-fusing plan, two measurements)
	// share nothing. A walk starts with the root lowered to its edges.
	built map[any]any
	// declared, if set, is told the reduce of every join the walk
	// lowers as distinct: how the injectivity test finds what to check.
	declared func(reduce any)
}

func lowered[V any](l *lowering, id any, build func(*lowering) V) V {
	if v, ok := l.built[id]; ok {
		return v.(V)
	}
	v := build(l)
	l.built[id] = v
	return v
}

func (e Expr[T]) collection(l *lowering) *core.Collection[T] { return lowered(l, e.n, e.n.oneShot) }
func (e Expr[T]) source(l *lowering) engine.Source[T]        { return lowered(l, e.n, e.n.stream) }

// OneShot lowers the tree to the lazy one-shot query over edges: the
// form measurements are taken from (core.NoisyCount charges the use
// counts the operators accumulated) and the reference the executor is
// tested against.
func OneShot[T comparable](e Expr[T], edges *core.Collection[graph.Edge]) *core.Collection[T] {
	return e.collection(&lowering{built: map[any]any{root.n: edges}})
}

// Stream lowers the tree to executor operators over the edge-difference
// stream edges, requesting every fragment through m (nil: no fusion, no
// accounting), and returns the stream of output differences.
func Stream[T comparable](e Expr[T], m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[T] {
	return e.source(&lowering{memo: m, built: map[any]any{root.n: edges}})
}

// Uses returns the analysis's privacy multiplier: how many times its
// tree reads the protected edge dataset. It is a fold over the tree,
// each node's count set when the node was built by the paper's stability
// rules: Join and Intersect add their operands' counts, every other
// operator passes its input's through, and the root reads the edges
// once. A node shared by two operands counts once per operand, as core
// counts a collection read twice. It is the count core charges a
// one-shot lowering (TestUsesIsTheOneShotCount); nothing is lowered.
func Uses[T comparable](e Expr[T]) int { return e.n.uses }

// root is the root of every tree: the symmetric edge dataset. It has no
// lowering of its own; OneShot and Stream hand it theirs.
var root = Expr[graph.Edge]{&node[graph.Edge]{below: []input{{key: "edges"}}, uses: 1}}

// frag marks body as a fragment: the unit of sharing between the
// analyses fitted on one plan. One-shot it is the identity. In the
// executor it is requested through the memo under key, so every tree
// whose fragment has this key subscribes to one copy of body's
// operators, and its output is tapped once for the memo's delivery
// count. The fragments body consumes are requested first, so the memo
// records inputs before their consumers.
//
// The key is written by hand, once, here: equal keys must mean equal
// operator subgraphs, and Go cannot derive that from the tree — the
// selectors, predicates and reducers are closures, which have no
// comparable identity and no inspectable body — so a key spells every
// parameter that changes the subgraph.
func frag[T comparable](key string, body Expr[T]) Expr[T] {
	e := Expr[T]{&node[T]{oneShot: body.collection, uses: body.n.uses}}
	e.n.stream = func(l *lowering) engine.Source[T] {
		inputs := make([]string, len(body.n.below))
		for i, in := range body.n.below {
			inputs[i] = in.key
			if in.request != nil {
				in.request(l)
			}
		}
		return plan.Shared(l.memo, plan.Node{Key: key, Inputs: inputs}, func() engine.Source[T] {
			out := body.source(l)
			plan.Count(l.memo, out)
			return out
		})
	}
	e.n.below = []input{{key: key, request: func(l *lowering) { e.source(l) }}}
	return e
}

// union returns a's inputs followed by those of b's that a lacks.
func union(a, b []input) []input {
	out := slices.Clip(a)
	for _, in := range b {
		if !slices.ContainsFunc(a, func(x input) bool { return x.key == in.key }) {
			out = append(out, in)
		}
	}
	return out
}

// The seven operators the analyses use (paper Sections 2.4–2.8). Each
// builds its operands left before right on both backends.

func sel[T, U comparable](in Expr[T], f func(T) U) Expr[U] {
	return op(in.n.below, in.n.uses,
		func(l *lowering) *core.Collection[U] { return core.Select(in.collection(l), f) },
		func(l *lowering) engine.Source[U] { return engine.Select(in.source(l), f) })
}

func where[T comparable](in Expr[T], p func(T) bool) Expr[T] {
	return op(in.n.below, in.n.uses,
		func(l *lowering) *core.Collection[T] { return core.Where(in.collection(l), p) },
		func(l *lowering) engine.Source[T] { return engine.Where(in.source(l), p) })
}

func selectManySlice[T, U comparable](in Expr[T], f func(T) []U) Expr[U] {
	return op(in.n.below, in.n.uses,
		func(l *lowering) *core.Collection[U] { return core.SelectManySlice(in.collection(l), f) },
		func(l *lowering) engine.Source[U] { return engine.SelectManySlice(in.source(l), f) })
}

func shaveConst[T comparable](in Expr[T], w float64) Expr[weighted.Indexed[T]] {
	return op(in.n.below, in.n.uses,
		func(l *lowering) *core.Collection[weighted.Indexed[T]] { return core.ShaveConst(in.collection(l), w) },
		func(l *lowering) engine.Source[weighted.Indexed[T]] { return engine.ShaveConst(in.source(l), w) })
}

// groupBy lowers to core.GroupBy and engine.GroupBy. reduce must neither
// modify nor retain its argument: on the engine it may be a window on the
// operator's live state.
func groupBy[T, K, R comparable](in Expr[T], key func(T) K, reduce func([]T) R) Expr[weighted.Grouped[K, R]] {
	return op(in.n.below, in.n.uses,
		func(l *lowering) *core.Collection[weighted.Grouped[K, R]] {
			return core.GroupBy(in.collection(l), key, reduce)
		},
		func(l *lowering) engine.Source[weighted.Grouped[K, R]] {
			return engine.GroupBy(in.source(l), key, reduce)
		})
}

func join[A, B, K, R comparable](a Expr[A], b Expr[B], keyA func(A) K, keyB func(B) K, reduce func(A, B) R) Expr[R] {
	return op(union(a.n.below, b.n.below), a.n.uses+b.n.uses,
		func(l *lowering) *core.Collection[R] {
			return core.Join(a.collection(l), b.collection(l), keyA, keyB, reduce)
		},
		func(l *lowering) engine.Source[R] { return engine.Join(a.source(l), b.source(l), keyA, keyB, reduce) })
}

// joinDistinct is join for a reduce under which no two matching pairs
// give the same record: the executor's loads then emit the outer product
// without merging it (engine.JoinDistinct), bit-identical to join's.
// Measured one-shot it is join. Each reduce declared here is a named
// function, and injectivity_test.go checks it exhaustively over a small
// domain.
func joinDistinct[A, B, K, R comparable](a Expr[A], b Expr[B], keyA func(A) K, keyB func(B) K, reduce func(A, B) R) Expr[R] {
	return op(union(a.n.below, b.n.below), a.n.uses+b.n.uses,
		func(l *lowering) *core.Collection[R] {
			return core.Join(a.collection(l), b.collection(l), keyA, keyB, reduce)
		},
		func(l *lowering) engine.Source[R] {
			if l.declared != nil {
				l.declared(reduce)
			}
			return engine.JoinDistinct(a.source(l), b.source(l), keyA, keyB, reduce)
		})
}

func intersect[T comparable](a, b Expr[T]) Expr[T] {
	return op(union(a.n.below, b.n.below), a.n.uses+b.n.uses,
		func(l *lowering) *core.Collection[T] { return core.Intersect(a.collection(l), b.collection(l)) },
		func(l *lowering) engine.Source[T] { return engine.Intersect(a.source(l), b.source(l)) })
}
