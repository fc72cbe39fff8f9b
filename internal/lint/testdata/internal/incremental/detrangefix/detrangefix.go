// Package detrangefix exercises the detrange analyzer: map iteration
// in a determinism-pinned package must feed a sort before observation
// or carry a reasoned directive.
package detrangefix

import "sort"

// sum observes map order through float accumulation: flagged.
func sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m { // want `range over map`
		t += v
	}
	return t
}

// sortedKeys collects and sorts before anything observes the order:
// allowed without a directive.
func sortedKeys(m map[string]float64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedPairs uses the slices-style sort.Slice form.
func sortedPairs(m map[string]int) []string {
	var out []string
	for k, v := range m {
		_ = v
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// copyMap is order-independent and carries the reasoned directive.
func copyMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	//wpinq:nondeterministic-ok map-to-map copy; the result is a map, so no iteration order is observable
	for k, v := range m {
		out[k] = v
	}
	return out
}

// unsorted collects but never sorts: still flagged.
func unsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over map`
		keys = append(keys, k)
	}
	return keys
}

// rangeOverSlice is fine: only maps iterate nondeterministically.
func rangeOverSlice(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// table stands in for the incremental state table: its each visits
// slots in an order that follows a per-process hash seed.
type table[K comparable, V any] struct {
	keys []K
	vals []V
}

func (t *table[K, V]) each(f func(K, V)) {
	for i, k := range t.keys {
		f(k, t.vals[i])
	}
}

// tableSum observes slot order through float accumulation: flagged.
func tableSum(t *table[string, float64]) float64 {
	var s float64
	t.each(func(_ string, v float64) { s += v }) // want `state table each`
	return s
}

// tableCount is order-independent and carries the reasoned directive.
func tableCount(t *table[string, []int]) int {
	n := 0
	//wpinq:nondeterministic-ok integer sum over group sizes is order-independent
	t.each(func(_ string, v []int) { n += len(v) })
	return n
}

// list is not the state table: its each is ordered.
type list []int

func (l list) each(f func(int)) {
	for _, x := range l {
		f(x)
	}
}

func listSum(l list) int {
	n := 0
	l.each(func(x int) { n += x })
	return n
}
