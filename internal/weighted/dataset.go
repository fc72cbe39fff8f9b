// Package weighted implements weighted datasets: the data model of wPINQ.
//
// A weighted dataset generalizes a multiset to a function A : D -> R mapping
// each record to a real-valued weight ("Calibrating Data to Sensitivity in
// Private Data Analysis", Section 2.1). The package also provides the
// reference, from-scratch semantics of every stable transformation defined
// by the paper (Select, Where, SelectMany, GroupBy, Shave, Join, Union,
// Intersect, Concat, Except). These functions are the executable
// specification against which the lazy one-shot language
// (wpinq/internal/core) and the incremental engines
// (wpinq/internal/incremental, wpinq/internal/engine) are verified.
//
// Determinism is by construction: a Dataset iterates in first-insertion
// order, every transformation visits its input in that order and emits
// in an order that is a function of it alone, so the floating-point
// result of a query — and therefore every released byte — is a pure
// function of how the source dataset was built. Nothing here sorts.
// The one canonical (content-defined) order, PairsSorted, is for the
// contracts listed on it.
package weighted

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Eps is the tolerance below which weights are treated as zero. Transform
// outputs drop records whose weight magnitude falls below Eps, so that long
// chains of floating-point arithmetic do not accumulate ghost records.
const Eps = 1e-12

// Dataset is a weighted dataset: a finitely-supported function from records
// of type T to real-valued weights. The zero value is ready to use.
//
// Records are kept in first-insertion order: a record's place is fixed
// when it first gains weight and is given up when its weight returns to
// zero (re-adding it later appends it at the end). Equality, Distance
// and every weight read are independent of that order; only iteration
// observes it.
//
// Dataset is not safe for concurrent mutation.
type Dataset[T comparable] struct {
	// recs holds the records in first-insertion order. A removed record
	// leaves a tombstone (the zero Pair; live weights are never 0) so
	// the positions in pos stay valid; compact squeezes tombstones out
	// once they outnumber the live records.
	recs []Pair[T]
	// pos maps each live record to its index in recs.
	pos map[T]int
}

// New returns an empty dataset.
func New[T comparable]() *Dataset[T] {
	return &Dataset[T]{pos: make(map[T]int)}
}

// NewSized returns an empty dataset with capacity for n records.
func NewSized[T comparable](n int) *Dataset[T] {
	return &Dataset[T]{recs: make([]Pair[T], 0, n), pos: make(map[T]int, n)}
}

// FromItems builds a dataset in which each listed record has weight 1.0.
// Repeated records accumulate.
func FromItems[T comparable](items ...T) *Dataset[T] {
	d := NewSized[T](len(items))
	for _, x := range items {
		d.Add(x, 1)
	}
	return d
}

// Pair couples a record with a weight, for bulk construction and iteration.
type Pair[T comparable] struct {
	Record T
	Weight float64
}

// FromPairs builds a dataset from explicit (record, weight) pairs.
// Repeated records accumulate.
func FromPairs[T comparable](pairs ...Pair[T]) *Dataset[T] {
	d := NewSized[T](len(pairs))
	for _, p := range pairs {
		d.Add(p.Record, p.Weight)
	}
	return d
}

// Weight returns A(x): the weight of record x, zero if absent.
func (d *Dataset[T]) Weight(x T) float64 {
	if d == nil {
		return 0
	}
	if i, ok := d.pos[x]; ok {
		return d.recs[i].Weight
	}
	return 0
}

// Add adds delta to the weight of x, removing the record if the result is
// negligibly small. Negative deltas (and negative resulting weights) are
// permitted: differences of datasets are themselves weighted datasets.
func (d *Dataset[T]) Add(x T, delta float64) {
	if i, ok := d.pos[x]; ok {
		d.put(x, i, d.recs[i].Weight+delta)
		return
	}
	d.insert(x, delta)
}

// Set assigns the weight of x, removing the record when the weight is
// negligibly small.
func (d *Dataset[T]) Set(x T, w float64) {
	if i, ok := d.pos[x]; ok {
		d.put(x, i, w)
		return
	}
	d.insert(x, w)
}

// Remove deletes the record x entirely (equivalent to Set(x, 0)).
func (d *Dataset[T]) Remove(x T) {
	if i, ok := d.pos[x]; ok {
		d.put(x, i, 0)
	}
}

// insert appends the absent record x at weight w, unless w is negligible.
func (d *Dataset[T]) insert(x T, w float64) {
	if math.Abs(w) < Eps {
		return
	}
	if d.pos == nil {
		d.pos = make(map[T]int)
	}
	d.pos[x] = len(d.recs)
	d.recs = append(d.recs, Pair[T]{x, w})
}

// put assigns weight w to the live record x at position i, dropping the
// record (and possibly compacting) when w is negligible.
func (d *Dataset[T]) put(x T, i int, w float64) {
	if math.Abs(w) >= Eps {
		d.recs[i].Weight = w
		return
	}
	d.bury(x, i)
	d.compact()
}

// bury turns the live record x at position i into a tombstone. It never
// moves another record, so it is safe while iterating recs.
func (d *Dataset[T]) bury(x T, i int) {
	d.recs[i] = Pair[T]{}
	delete(d.pos, x)
}

// minCompact is the tombstone count below which compaction is not worth
// a pass: small datasets churn without ever rebuilding.
const minCompact = 32

// compact squeezes tombstones out of recs, preserving the order of the
// live records, once they outnumber them; the cost is amortized O(1)
// per removal.
func (d *Dataset[T]) compact() {
	dead := len(d.recs) - len(d.pos)
	if dead < minCompact || dead <= len(d.pos) {
		return
	}
	live := d.recs[:0]
	for _, p := range d.recs {
		if p.Weight != 0 {
			d.pos[p.Record] = len(live)
			live = append(live, p)
		}
	}
	clear(d.recs[len(live):])
	d.recs = live
}

// Len returns the number of records with non-zero weight.
func (d *Dataset[T]) Len() int {
	if d == nil {
		return 0
	}
	return len(d.pos)
}

// Norm returns ||A|| = sum_x |A(x)|, the size of the dataset.
func (d *Dataset[T]) Norm() float64 {
	if d == nil {
		return 0
	}
	var n float64
	for _, p := range d.recs {
		n += math.Abs(p.Weight)
	}
	return n
}

// Total returns sum_x A(x) (signed), the total mass of the dataset. For
// non-negative datasets Total equals Norm.
func (d *Dataset[T]) Total() float64 {
	if d == nil {
		return 0
	}
	var n float64
	for _, p := range d.recs {
		n += p.Weight
	}
	return n
}

// Range calls f for every record with non-zero weight, in first-insertion
// order (see Dataset): the order is a pure function of the sequence of
// Add/Set/Remove calls that built the dataset, never of Go's map
// iteration. f must not mutate the dataset.
func (d *Dataset[T]) Range(f func(x T, w float64)) {
	if d == nil {
		return
	}
	for _, p := range d.recs {
		if p.Weight != 0 {
			f(p.Record, p.Weight)
		}
	}
}

// Records returns the records with non-zero weight, in Range order.
func (d *Dataset[T]) Records() []T {
	if d == nil {
		return nil
	}
	out := make([]T, 0, d.Len())
	d.Range(func(x T, _ float64) { out = append(out, x) })
	return out
}

// Pairs returns all (record, weight) pairs, in Range order.
func (d *Dataset[T]) Pairs() []Pair[T] {
	if d == nil {
		return nil
	}
	out := make([]Pair[T], 0, d.Len())
	d.Range(func(x T, w float64) { out = append(out, Pair[T]{x, w}) })
	return out
}

// PairsSorted returns all (record, weight) pairs in canonical order:
// sorted by the records' fmt.Sprint rendering, which is injective for
// the record types wPINQ queries produce (ints and structs/arrays of
// ints). Unlike Range order, canonical order depends only on the
// dataset's contents, not on how it was built, and it costs a
// fmt.Sprint per record plus O(n log n) string comparisons — so it is
// reserved for the three places where a content-defined order is part of
// a contract, and no transformation uses it:
//
//   - core.NoisyCount assigns its noise draws in this order, so a seed
//     pins which record receives which draw whatever plan produced the
//     collection;
//   - core.NoisySum accumulates in this order, for the same reason;
//   - engine.Input.PushDataset builds its bulk-load batch in this order,
//     which the golden traces and the checkpoint/resume bit-identity
//     guarantee were recorded under.
func (d *Dataset[T]) PairsSorted() []Pair[T] {
	pairs := d.Pairs()
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = fmt.Sprint(p.Record)
	}
	sort.Sort(&pairsByKey[T]{pairs: pairs, keys: keys})
	return pairs
}

type pairsByKey[T comparable] struct {
	pairs []Pair[T]
	keys  []string
}

func (s *pairsByKey[T]) Len() int           { return len(s.pairs) }
func (s *pairsByKey[T]) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *pairsByKey[T]) Swap(i, j int) {
	s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// Clone returns a deep copy of the dataset, in the same order and without
// the original's tombstones.
func (d *Dataset[T]) Clone() *Dataset[T] {
	c := NewSized[T](d.Len())
	d.Range(c.insert)
	return c
}

// Reset removes every record while keeping the allocated capacity: the
// idiom for reusable accumulators in hot loops.
func (d *Dataset[T]) Reset() {
	clear(d.pos)
	clear(d.recs)
	d.recs = d.recs[:0]
}

// Scale multiplies every weight by s, in place, and returns the receiver.
func (d *Dataset[T]) Scale(s float64) *Dataset[T] {
	if d == nil {
		return d
	}
	// Records scaled below Eps are buried, not compacted away, while the
	// loop still walks recs by position; one compaction follows it.
	for i, p := range d.recs {
		if p.Weight == 0 {
			continue
		}
		if nw := p.Weight * s; math.Abs(nw) >= Eps {
			d.recs[i].Weight = nw
		} else {
			d.bury(p.Record, i)
		}
	}
	d.compact()
	return d
}

// Distance returns ||A - B|| = sum_x |A(x) - B(x)|: the metric under which
// differential privacy for weighted datasets is defined (Definition 1).
func Distance[T comparable](a, b *Dataset[T]) float64 {
	var dist float64
	seen := make(map[T]struct{}, a.Len())
	a.Range(func(x T, w float64) {
		seen[x] = struct{}{}
		dist += math.Abs(w - b.Weight(x))
	})
	b.Range(func(x T, w float64) {
		if _, ok := seen[x]; !ok {
			dist += math.Abs(w)
		}
	})
	return dist
}

// Equal reports whether the two datasets assign every record the same weight
// within tolerance tol.
func Equal[T comparable](a, b *Dataset[T], tol float64) bool {
	ok := true
	a.Range(func(x T, w float64) {
		if math.Abs(w-b.Weight(x)) > tol {
			ok = false
		}
	})
	if !ok {
		return false
	}
	b.Range(func(x T, w float64) {
		if math.Abs(w-a.Weight(x)) > tol {
			ok = false
		}
	})
	return ok
}

// String renders the dataset as {(record, weight), ...} with records sorted
// by their formatted representation, for stable test output and debugging.
func (d *Dataset[T]) String() string {
	pairs := d.Pairs()
	sort.Slice(pairs, func(i, j int) bool {
		return fmt.Sprint(pairs[i].Record) < fmt.Sprint(pairs[j].Record)
	})
	var b strings.Builder
	b.WriteString("{")
	for i, p := range pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%v, %.4g)", p.Record, p.Weight)
	}
	b.WriteString("}")
	return b.String()
}
