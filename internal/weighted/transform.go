package weighted

import (
	"math"
)

// This file implements the reference semantics of every stable
// transformation in wPINQ (paper Sections 2.4-2.8). Each function T
// satisfies ||T(A) - T(A')|| <= ||A - A'|| (unary) or
// ||T(A,B) - T(A',B')|| <= ||A-A'|| + ||B-B'|| (binary); the property tests
// in stability_test.go check these bounds on random inputs.
//
// Every transformation X has exactly one implementation, XEach, which
// hands its output to an emit callback as (record, weight) fragments;
// X itself is XEach accumulated into a Dataset. The lazy one-shot
// language (wpinq/internal/core) chains the XEach forms directly, so a
// query's intermediate results exist only where an operator needs
// accumulated weights.
//
// The linear transformations (Select, Where, SelectMany, Concat, Except)
// act on each fragment independently, so their Each forms read a Seq —
// any fragment stream, a Dataset's Range included. The others (GroupBy,
// Shave, Join, Union, Intersect) depend on each record's total weight
// and read Datasets.

// Seq is a stream of (record, weight) fragments: calling it emits the
// fragments in a deterministic order. A record may be emitted more than
// once; its weight in the dataset the stream denotes is the sum of its
// fragments. (*Dataset).Range is a Seq emitting each record once.
type Seq[T comparable] func(emit func(x T, w float64))

// SelectEach is the fragment form of Select.
func SelectEach[T, U comparable](a Seq[T], f func(T) U, emit func(U, float64)) {
	a(func(x T, w float64) { emit(f(x), w) })
}

// Select applies f to each record, accumulating the weights of input records
// that map to the same output record:
//
//	Select(A, f)(x) = sum_{y : f(y)=x} A(y)
func Select[T, U comparable](a *Dataset[T], f func(T) U) *Dataset[U] {
	out := NewSized[U](a.Len())
	SelectEach(a.Range, f, out.Add)
	return out
}

// WhereEach is the fragment form of Where.
func WhereEach[T comparable](a Seq[T], p func(T) bool, emit func(T, float64)) {
	a(func(x T, w float64) {
		if p(x) {
			emit(x, w)
		}
	})
}

// Where keeps only the records satisfying predicate p:
//
//	Where(A, p)(x) = p(x) * A(x)
func Where[T comparable](a *Dataset[T], p func(T) bool) *Dataset[T] {
	out := NewSized[T](a.Len())
	WhereEach(a.Range, p, out.Add)
	return out
}

// SelectManyEach is the fragment form of SelectMany.
func SelectManyEach[T, U comparable](a Seq[T], f func(T) *Dataset[U], emit func(U, float64)) {
	a(func(x T, w float64) {
		fx := f(x)
		scale := w / math.Max(1, fx.Norm())
		fx.Range(func(y U, wy float64) { emit(y, wy*scale) })
	})
}

// SelectMany maps each record x to a weighted dataset f(x), scales that
// dataset to at most unit norm, multiplies by A(x), and accumulates:
//
//	SelectMany(A, f) = sum_x A(x) * f(x) / max(1, ||f(x)||)
//
// The scaling depends only on the number (norm) of records each individual
// input produces, not on any worst-case bound — the heart of the paper's
// data-dependent rescaling.
func SelectMany[T, U comparable](a *Dataset[T], f func(T) *Dataset[U]) *Dataset[U] {
	out := New[U]()
	SelectManyEach(a.Range, f, out.Add)
	return out
}

// SelectManySlice is SelectMany for the common case where f produces a list
// of unit-weight records: an input of weight w mapped to n distinct items
// yields each item with weight w/max(1, n). Duplicate items in the slice
// accumulate weight before scaling.
func SelectManySlice[T, U comparable](a *Dataset[T], f func(T) []U) *Dataset[U] {
	return SelectMany(a, func(x T) *Dataset[U] { return FromItems(f(x)...) })
}

// Grouped is the output record type of GroupBy: a group key together with
// the result of the reducer on (a prefix of) the group.
type Grouped[K, R comparable] struct {
	Key    K
	Result R
}

// GroupByEach is the fragment form of GroupBy. Groups are emitted in the
// order their keys first appear in a.
func GroupByEach[T comparable, K comparable, R comparable](a *Dataset[T], key func(T) K, reduce func([]T) R, emit func(Grouped[K, R], float64)) {
	groups := make(map[K][]Pair[T])
	var order []K
	a.Range(func(x T, w float64) {
		k := key(x)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], Pair[T]{x, w})
	})
	var recs []T
	var ws []float64
	for _, k := range order {
		recs, ws = PrefixReduce(k, groups[k], reduce, emit, recs, ws)
	}
}

// GroupBy groups records by key and applies the reducer to weight-ordered
// prefixes of each group (paper Section 2.5). For a group with records
// x_0, x_1, ... ordered by non-increasing weight w_0 >= w_1 >= ..., the
// prefix {x_j : j <= i} is emitted with weight (w_i - w_{i+1})/2 (taking
// w_n = 0 past the end). When all records share weight w — the common case
// of unit-weight inputs — only the full group appears, with weight w/2.
//
// The reducer receives the prefix's records; its output must be comparable
// so that identical results accumulate. Reducers must neither modify nor
// retain the slice: the incremental GroupBy hands them a window on its
// live state (see ReducePrefixes).
// The paper defines each prefix as a *set*: records of equal weight appear
// in unspecified relative order (their boundary prefixes carry zero
// weight), so reducers must not depend on the order of equal-weight
// records — use order-insensitive functions (count, sum, ...) or sort
// within the reducer (a copy: see above).
func GroupBy[T comparable, K comparable, R comparable](a *Dataset[T], key func(T) K, reduce func([]T) R) *Dataset[Grouped[K, R]] {
	out := New[Grouped[K, R]]()
	GroupByEach(a, key, reduce, out.Add)
	return out
}

// Indexed is the output record type of Shave: the original record together
// with the index of the shaved slice.
type Indexed[T comparable] struct {
	Value T
	Index int
}

// ShaveEach is the fragment form of Shave.
func ShaveEach[T comparable](a *Dataset[T], f func(x T, i int) float64, emit func(Indexed[T], float64)) {
	a.Range(func(x T, w float64) {
		ShaveExpand(x, w, f, func(i int, wi float64) { emit(Indexed[T]{x, i}, wi) })
	})
}

// Shave decomposes each record x of weight A(x) into records <x, 0>,
// <x, 1>, ... whose weights follow the sequence f(x) until A(x) is
// exhausted (paper Section 2.8):
//
//	Shave(A, f)(<x,i>) = max(0, min(f(x)_i, A(x) - sum_{j<i} f(x)_j))
//
// f(x) returns the weight of slice i for record x; it must be non-negative.
// Records with non-positive weight produce no output.
func Shave[T comparable](a *Dataset[T], f func(x T, i int) float64) *Dataset[Indexed[T]] {
	out := New[Indexed[T]]()
	ShaveEach(a, f, out.Add)
	return out
}

// ShaveConst is Shave with the constant weight sequence <w, w, w, ...>.
// It is the form used by all of the paper's graph analyses
// (e.g. Shave(1.0) to enumerate a vertex's incident-edge slots).
func ShaveConst[T comparable](a *Dataset[T], w float64) *Dataset[Indexed[T]] {
	return Shave(a, func(T, int) float64 { return w })
}

// JoinEach is the fragment form of Join. Key groups are matched in the
// order their keys first appear in a; within a group, a's records vary
// slowest.
func JoinEach[A, B comparable, K comparable, R comparable](
	a *Dataset[A], b *Dataset[B],
	keyA func(A) K, keyB func(B) K,
	reduce func(A, B) R,
	emit func(R, float64),
) {
	ga := make(map[K][]Pair[A])
	var order []K
	a.Range(func(x A, w float64) {
		k := keyA(x)
		if _, ok := ga[k]; !ok {
			order = append(order, k)
		}
		ga[k] = append(ga[k], Pair[A]{x, w})
	})
	gb := make(map[K][]Pair[B])
	b.Range(func(y B, w float64) {
		k := keyB(y)
		gb[k] = append(gb[k], Pair[B]{y, w})
	})
	for _, k := range order {
		as := ga[k]
		bs, ok := gb[k]
		if !ok {
			continue
		}
		var normA, normB float64
		for _, p := range as {
			normA += math.Abs(p.Weight)
		}
		for _, p := range bs {
			normB += math.Abs(p.Weight)
		}
		denom := normA + normB
		if denom < Eps {
			continue
		}
		for _, pa := range as {
			for _, pb := range bs {
				emit(reduce(pa.Record, pb.Record), pa.Weight*pb.Weight/denom)
			}
		}
	}
}

// Join matches records of a and b sharing a key and emits
// reduce(x, y) for each matching pair, with the weights of each key group
// normalized by the group's total input norm (paper Section 2.7, eq. 1):
//
//	Join(A, B)(r) = sum_k  sum_{(x,y) : keys match k, reduce(x,y)=r}
//	                  A_k(x) * B_k(y) / (||A_k|| + ||B_k||)
//
// This normalized outer product is what makes Join stable on weighted
// datasets, unlike the standard relational equi-join.
func Join[A, B comparable, K comparable, R comparable](
	a *Dataset[A], b *Dataset[B],
	keyA func(A) K, keyB func(B) K,
	reduce func(A, B) R,
) *Dataset[R] {
	out := New[R]()
	JoinEach(a, b, keyA, keyB, reduce, out.Add)
	return out
}

// JoinPairs is Join with the identity reduction: the output records are the
// matched (a, b) pairs themselves.
func JoinPairs[A, B comparable, K comparable](
	a *Dataset[A], b *Dataset[B],
	keyA func(A) K, keyB func(B) K,
) *Dataset[JoinPair[A, B]] {
	return Join(a, b, keyA, keyB, func(x A, y B) JoinPair[A, B] { return JoinPair[A, B]{x, y} })
}

// JoinPair is the output record type of JoinPairs.
type JoinPair[A, B comparable] struct {
	Left  A
	Right B
}

// UnionEach is the fragment form of Union; each record is emitted once.
func UnionEach[T comparable](a, b *Dataset[T], emit func(T, float64)) {
	a.Range(func(x T, w float64) { emit(x, math.Max(w, b.Weight(x))) })
	b.Range(func(x T, w float64) {
		if a.Weight(x) == 0 {
			emit(x, math.Max(w, 0))
		}
	})
}

// Union takes the element-wise maximum of weights:
//
//	Union(A, B)(x) = max(A(x), B(x))
func Union[T comparable](a, b *Dataset[T]) *Dataset[T] {
	out := NewSized[T](a.Len() + b.Len())
	UnionEach(a, b, out.Add)
	return out
}

// IntersectEach is the fragment form of Intersect; each record is
// emitted once.
func IntersectEach[T comparable](a, b *Dataset[T], emit func(T, float64)) {
	a.Range(func(x T, w float64) {
		if m := math.Min(w, b.Weight(x)); m != 0 {
			emit(x, m)
		}
	})
	// Records present only in b can still contribute negatively:
	// min(0, w) = w when w < 0.
	b.Range(func(x T, w float64) {
		if a.Weight(x) == 0 && w < 0 {
			emit(x, w)
		}
	})
}

// Intersect takes the element-wise minimum of weights:
//
//	Intersect(A, B)(x) = min(A(x), B(x))
func Intersect[T comparable](a, b *Dataset[T]) *Dataset[T] {
	out := New[T]()
	IntersectEach(a, b, out.Add)
	return out
}

// ConcatEach is the fragment form of Concat.
func ConcatEach[T comparable](a, b Seq[T], emit func(T, float64)) {
	a(emit)
	b(emit)
}

// Concat adds weights element-wise:
//
//	Concat(A, B)(x) = A(x) + B(x)
func Concat[T comparable](a, b *Dataset[T]) *Dataset[T] {
	out := NewSized[T](a.Len() + b.Len())
	ConcatEach(a.Range, b.Range, out.Add)
	return out
}

// ExceptEach is the fragment form of Except.
func ExceptEach[T comparable](a, b Seq[T], emit func(T, float64)) {
	a(emit)
	b(func(x T, w float64) { emit(x, -w) })
}

// Except subtracts weights element-wise:
//
//	Except(A, B)(x) = A(x) - B(x)
func Except[T comparable](a, b *Dataset[T]) *Dataset[T] {
	out := NewSized[T](a.Len() + b.Len())
	ExceptEach(a.Range, b.Range, out.Add)
	return out
}
