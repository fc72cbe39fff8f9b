// Package core implements the wPINQ language: differentially-private
// declarative queries over weighted datasets (paper Section 2).
//
// A Collection is a node of a query plan over protected Sources, carrying
// the static use-counts of every Source it derives from. Transformations
// are stable (Definition 2) and therefore free; information is only
// released through differentially-private aggregations (NoisyCount),
// which charge each source uses*eps of privacy budget.
//
// Plans are evaluated lazily. Building a transformation does no work: it
// records how to stream the result as (record, weight) fragments through
// the one implementation of each operator, weighted.XEach. The linear
// operators (Select, Where, SelectMany, Concat, Except) pass fragments
// straight through, so a chain of them never holds an intermediate
// result. A collection is accumulated into a weighted.Dataset exactly
// once — memoized, safe for concurrent readers — when something needs
// its total weights: an operator that is not linear in its input (Join,
// GroupBy, Shave, Union, Intersect), an aggregation, Size or Snapshot,
// or a second downstream operator, so that no operator's work is
// repeated. Downstream operators are counted as the plan is built;
// attaching one to a collection that has already streamed to its only
// reader is allowed and merely evaluates that collection again.
//
// Transformations are package-level generic functions rather than methods
// because Go methods cannot introduce new type parameters:
//
//	edges := core.FromDataset(data, src)
//	paths := core.Join(edges, edges, dstKey, srcKey, makePath)
//	hist, err := core.NoisyCount(paths, 0.1, rng)
package core

import (
	"sync"
	"sync/atomic"

	"wpinq/internal/budget"
	"wpinq/internal/weighted"
)

// Collection is a weighted dataset flowing through a wPINQ query plan,
// carrying the per-source use counts needed for privacy accounting.
// Collections are immutable: every transformation returns a new Collection.
type Collection[T comparable] struct {
	uses budget.Uses

	// each streams the collection's fragments; nil for a source, whose
	// data is stored at construction.
	each weighted.Seq[T]
	// readers counts the transformations built over this collection.
	readers atomic.Int32

	// mu serializes the one accumulation of each into data.
	mu   sync.Mutex
	data atomic.Pointer[weighted.Dataset[T]]
}

// source wraps an already-materialized dataset.
func source[T comparable](data *weighted.Dataset[T], uses budget.Uses) *Collection[T] {
	c := &Collection[T]{uses: uses}
	c.data.Store(data)
	return c
}

// FromDataset introduces a protected dataset into a query. The dataset is
// cloned so later mutation of data cannot bypass privacy accounting.
func FromDataset[T comparable](data *weighted.Dataset[T], src *budget.Source) *Collection[T] {
	return source(data.Clone(), budget.Single(src))
}

// FromPublic introduces a dataset with no privacy cost (public or already
// released data). Aggregating a public collection charges nothing.
func FromPublic[T comparable](data *weighted.Dataset[T]) *Collection[T] {
	return source(data.Clone(), nil)
}

// derived builds the result of a transformation from its fragment stream.
func derived[T comparable](each weighted.Seq[T], uses budget.Uses) *Collection[T] {
	return &Collection[T]{each: each, uses: uses}
}

// reader registers one more downstream transformation.
func (c *Collection[T]) reader() { c.readers.Add(1) }

// dataset returns the collection accumulated into a dataset, evaluating
// it on first use. The result is shared: callers must not mutate it.
func (c *Collection[T]) dataset() *weighted.Dataset[T] {
	if d := c.data.Load(); d != nil {
		return d
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.data.Load(); d != nil {
		return d
	}
	d := weighted.New[T]()
	c.each(d.Add)
	c.data.Store(d)
	return d
}

// stream emits the collection's fragments to a linear downstream
// operator: straight from upstream when that operator is the only
// reader, from the shared accumulated dataset otherwise.
func (c *Collection[T]) stream(emit func(T, float64)) {
	if c.data.Load() == nil && c.readers.Load() <= 1 {
		c.each(emit)
		return
	}
	c.dataset().Range(emit)
}

// Uses returns a copy of the collection's per-source use counts.
func (c *Collection[T]) Uses() budget.Uses { return c.uses.Clone() }

// Size returns ||A||, the norm of the underlying dataset. Note that for a
// protected collection the exact size is itself sensitive; Size exists for
// tests and for public collections. Use NoisyCount to release information.
func (c *Collection[T]) Size() float64 { return c.dataset().Norm() }

// snapshot returns a defensive copy of the underlying data, for tests and
// for the synthesis engine operating on public data.
func (c *Collection[T]) snapshot() *weighted.Dataset[T] { return c.dataset().Clone() }

// Snapshot returns a copy of the underlying dataset. It must only be used
// on public collections (no protected sources); calling it on a protected
// collection panics, preventing accidental privacy bypass.
func (c *Collection[T]) Snapshot() *weighted.Dataset[T] {
	if len(c.uses) > 0 {
		panic("core: Snapshot on a protected collection would bypass differential privacy")
	}
	return c.snapshot()
}

// Select applies f to every record, accumulating weights of records that
// collide (paper Section 2.4).
func Select[T, U comparable](c *Collection[T], f func(T) U) *Collection[U] {
	c.reader()
	return derived(func(emit func(U, float64)) {
		weighted.SelectEach(c.stream, f, emit)
	}, c.uses.Clone())
}

// Where keeps records satisfying p (paper Section 2.4).
func Where[T comparable](c *Collection[T], p func(T) bool) *Collection[T] {
	c.reader()
	return derived(func(emit func(T, float64)) {
		weighted.WhereEach(c.stream, p, emit)
	}, c.uses.Clone())
}

// SelectMany maps each record to a weighted dataset, rescaled to unit norm
// per input record (paper Section 2.4).
func SelectMany[T, U comparable](c *Collection[T], f func(T) *weighted.Dataset[U]) *Collection[U] {
	c.reader()
	return derived(func(emit func(U, float64)) {
		weighted.SelectManyEach(c.stream, f, emit)
	}, c.uses.Clone())
}

// SelectManySlice is SelectMany for unit-weight output lists.
func SelectManySlice[T, U comparable](c *Collection[T], f func(T) []U) *Collection[U] {
	return SelectMany(c, func(x T) *weighted.Dataset[U] { return weighted.FromItems(f(x)...) })
}

// GroupBy groups records by key and reduces weight-ordered prefixes of each
// group (paper Section 2.5). For unit-weight inputs the output carries half
// the input weight.
func GroupBy[T comparable, K comparable, R comparable](c *Collection[T], key func(T) K, reduce func([]T) R) *Collection[weighted.Grouped[K, R]] {
	c.reader()
	return derived(func(emit func(weighted.Grouped[K, R], float64)) {
		weighted.GroupByEach(c.dataset(), key, reduce, emit)
	}, c.uses.Clone())
}

// Shave decomposes heavy records into indexed slices following the weight
// sequence f (paper Section 2.8).
func Shave[T comparable](c *Collection[T], f func(x T, i int) float64) *Collection[weighted.Indexed[T]] {
	c.reader()
	return derived(func(emit func(weighted.Indexed[T], float64)) {
		weighted.ShaveEach(c.dataset(), f, emit)
	}, c.uses.Clone())
}

// ShaveConst is Shave with a constant weight sequence.
func ShaveConst[T comparable](c *Collection[T], w float64) *Collection[weighted.Indexed[T]] {
	return Shave(c, func(T, int) float64 { return w })
}

// Join matches records by key with per-key norm rescaling (paper Section
// 2.7, eq. 1). The output's use counts are the sums of the inputs': a
// self-join doubles the privacy multiplier automatically.
func Join[A, B comparable, K comparable, R comparable](
	a *Collection[A], b *Collection[B],
	keyA func(A) K, keyB func(B) K,
	reduce func(A, B) R,
) *Collection[R] {
	a.reader()
	b.reader()
	return derived(func(emit func(R, float64)) {
		weighted.JoinEach(a.dataset(), b.dataset(), keyA, keyB, reduce, emit)
	}, a.uses.Plus(b.uses))
}

// Union takes the element-wise maximum of weights (paper Section 2.6).
func Union[T comparable](a, b *Collection[T]) *Collection[T] {
	a.reader()
	b.reader()
	return derived(func(emit func(T, float64)) {
		weighted.UnionEach(a.dataset(), b.dataset(), emit)
	}, a.uses.Plus(b.uses))
}

// Intersect takes the element-wise minimum of weights (paper Section 2.6).
func Intersect[T comparable](a, b *Collection[T]) *Collection[T] {
	a.reader()
	b.reader()
	return derived(func(emit func(T, float64)) {
		weighted.IntersectEach(a.dataset(), b.dataset(), emit)
	}, a.uses.Plus(b.uses))
}

// Concat adds weights element-wise (paper Section 2.6).
func Concat[T comparable](a, b *Collection[T]) *Collection[T] {
	a.reader()
	b.reader()
	return derived(func(emit func(T, float64)) {
		weighted.ConcatEach(a.stream, b.stream, emit)
	}, a.uses.Plus(b.uses))
}

// Except subtracts weights element-wise (paper Section 2.6).
func Except[T comparable](a, b *Collection[T]) *Collection[T] {
	a.reader()
	b.reader()
	return derived(func(emit func(T, float64)) {
		weighted.ExceptEach(a.stream, b.stream, emit)
	}, a.uses.Plus(b.uses))
}
