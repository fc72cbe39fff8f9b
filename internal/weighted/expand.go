package weighted

import (
	"math"
	"slices"
)

// This file holds the shared expansion semantics of GroupBy and Shave used
// by both the reference transformations (transform.go) and the incremental
// operators (wpinq/internal/incremental). Keeping a single implementation
// guarantees the two agree bit-for-bit on operator semantics.

// PrefixReduce emits the weight-ordered prefix outputs of a single group
// (paper Section 2.5). members lists the group's records with their
// weights; reduce maps a prefix of records to a result; emit receives each
// non-trivial output record and weight. Records with non-positive weight
// contribute nothing. The members slice is reordered in place.
func PrefixReduce[T comparable, K comparable, R comparable](
	key K,
	members []Pair[T],
	reduce func([]T) R,
	emit func(Grouped[K, R], float64),
) {
	PrefixReduceInto(key, members, reduce, emit, nil)
}

// PrefixReduceInto is PrefixReduce with a caller-supplied prefix scratch
// buffer, so hot loops (the incremental GroupBy re-expands two groups per
// touched key per push) do not allocate the prefix slice each call. The
// possibly-grown scratch is returned for reuse; its contents are
// meaningless after the call.
func PrefixReduceInto[T comparable, K comparable, R comparable](
	key K,
	members []Pair[T],
	reduce func([]T) R,
	emit func(Grouped[K, R], float64),
	scratch []T,
) []T {
	// Drop non-positive weights: a record with zero weight is absent, and
	// the GroupBy stability argument is over non-negative datasets.
	kept := members[:0]
	for _, p := range members {
		if p.Weight > Eps {
			kept = append(kept, p)
		}
	}
	members = kept
	// Stable descending sort by weight. The comparison is the exact
	// negation pair of the previous sort.SliceStable less function, and
	// both sorts are stable, so the resulting permutation — and therefore
	// every downstream float accumulation order — is identical; this
	// variant just avoids the reflection-based swapper allocations.
	slices.SortStableFunc(members, func(a, b Pair[T]) int {
		switch {
		case a.Weight > b.Weight:
			return -1
		case a.Weight < b.Weight:
			return 1
		default:
			return 0
		}
	})
	prefix := scratch[:0]
	for i, p := range members {
		prefix = append(prefix, p.Record)
		next := 0.0
		if i+1 < len(members) {
			next = members[i+1].Weight
		}
		pw := (p.Weight - next) / 2
		if pw < Eps {
			continue
		}
		emit(Grouped[K, R]{key, reduce(prefix)}, pw)
	}
	return prefix
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
