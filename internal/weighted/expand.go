package weighted

import (
	"math"
	"slices"
)

// This file holds the shared expansion semantics of GroupBy and Shave used
// by both the reference transformations (transform.go) and the incremental
// operators (wpinq/internal/incremental). Keeping a single implementation
// guarantees the two agree bit-for-bit on operator semantics.

// InWeightOrder reports whether a group's weights ws already run
// non-increasing with the last above Eps. That is exactly when
// PrefixReduce's filter drops nothing and its stable sort is the
// identity, so the group can be expanded where it lies (ReducePrefixes).
// A NaN weight fails the comparison and so reads as out of order.
func InWeightOrder(ws []float64) bool {
	for i := 1; i < len(ws); i++ {
		if !(ws[i-1] >= ws[i]) {
			return false
		}
	}
	return len(ws) == 0 || ws[len(ws)-1] > Eps
}

// ReducePrefixes is GroupBy's prefix rule (paper Section 2.5) over a
// group already in weight order (InWeightOrder(ws)): recs[i] carries
// weight ws[i], and the prefix recs[:i+1] is emitted at weight
// (ws[i] − ws[i+1])/2, taking ws[n] = 0, wherever that is at least Eps.
// reduce runs only at the prefixes that emit — once for a group of equal
// weights. It receives a window on recs, which may be an operator's live
// state: it must neither modify nor retain its argument.
func ReducePrefixes[T comparable, K comparable, R comparable](
	key K,
	recs []T,
	ws []float64,
	reduce func([]T) R,
	emit func(Grouped[K, R], float64),
) {
	for i, w := range ws {
		next := 0.0
		if i+1 < len(ws) {
			next = ws[i+1]
		}
		pw := (w - next) / 2
		if pw < Eps {
			continue
		}
		emit(Grouped[K, R]{key, reduce(recs[:i+1])}, pw)
	}
}

// PrefixReduce emits the weight-ordered prefix outputs of a single group
// (paper Section 2.5). members lists the group's records with their
// weights; reduce maps a prefix of records to a result (it must neither
// modify nor retain its argument); emit receives each non-trivial output
// record and weight. Records with weight at most Eps contribute nothing.
// The members slice is reordered in place. recs and ws are scratch for
// the group's ordered records and weights, so a caller expanding group
// after group — the one-shot GroupBy, and the incremental one for each
// group not already in weight order — allocates them once; the
// possibly-grown scratch is returned for reuse, its contents meaningless.
func PrefixReduce[T comparable, K comparable, R comparable](
	key K,
	members []Pair[T],
	reduce func([]T) R,
	emit func(Grouped[K, R], float64),
	recs []T,
	ws []float64,
) ([]T, []float64) {
	// Drop weights at most Eps: a record with zero weight is absent, and
	// the GroupBy stability argument is over non-negative datasets.
	kept := members[:0]
	recs, ws = recs[:0], ws[:0]
	for _, p := range members {
		if p.Weight > Eps {
			kept = append(kept, p)
			recs = append(recs, p.Record)
			ws = append(ws, p.Weight)
		}
	}
	if !InWeightOrder(ws) {
		// Stable descending sort by weight: equal weights keep their
		// order, so the permutation — and every downstream float
		// accumulation order — is a function of the group's order
		// alone. A group already in order skips it: a stable sort of a
		// sorted slice is the identity.
		slices.SortStableFunc(kept, func(a, b Pair[T]) int {
			switch {
			case a.Weight > b.Weight:
				return -1
			case a.Weight < b.Weight:
				return 1
			default:
				return 0
			}
		})
		for i, p := range kept {
			recs[i], ws[i] = p.Record, p.Weight
		}
	}
	ReducePrefixes(key, recs, ws, reduce, emit)
	return recs, ws
}

// ShaveExpand emits the indexed slices of a single record x of weight w
// under the weight sequence f (paper Section 2.8). emit receives each
// (index, slice weight) pair. Non-positive w produces nothing; the
// expansion stops when f returns a non-positive term.
func ShaveExpand[T comparable](x T, w float64, f func(x T, i int) float64, emit func(i int, wi float64)) {
	remaining := w
	for i := 0; remaining > Eps; i++ {
		wi := f(x, i)
		if wi <= 0 {
			return
		}
		take := math.Min(wi, remaining)
		emit(i, take)
		remaining -= take
	}
}
