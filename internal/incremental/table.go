package incremental

import (
	"hash/maphash"
	"math/bits"
)

// table is the one hash index of the operators' and sinks' state: the
// key groups of Join and GroupBy, a large stateMap's position index,
// Union/Intersect's weight pairs and a noisy-count sink's records. It
// probes linearly over a power-of-two array of slots that hold the key
// and the value inline, so a lookup that hits reads the cache line its
// hash picked and, most often, nothing else — where a Go map first
// reads a control word and then the slot it points at.
//
// A value equal to V's zero marks an empty slot: callers never store
// one (put of a zero value removes the key). Deletion shifts the rest
// of the probe run back into the hole, so there are no tombstones and
// a table's probe runs depend only on the keys it holds.
//
// No result may depend on iterating a table: the slot order follows
// hashSeed, a process-wide random seed. Emission and accumulation
// orders come from the operators' slices and the keyGrouper instead;
// each exists for order-independent sums alone.
type table[K comparable, V comparable] struct {
	slots []tableSlot[K, V] // power-of-two length, or nil before the first claim
	n     int               // occupied slots
}

type tableSlot[K comparable, V comparable] struct {
	key K
	val V // zero: the slot is empty
}

const (
	// A table holds at most tableLoadNum/tableLoadDen of its slots.
	// Half full keeps an absent key's expected probe run under three
	// slots; 3/4 was measured slower on walk-hot's path-keyed state
	// (DESIGN.md "One state table").
	tableLoadNum = 1
	tableLoadDen = 2

	// tableMinSlots is the size of a table's first slot array.
	tableMinSlots = 8
)

// len returns the number of keys held.
func (t *table[K, V]) len() int { return t.n }

// probe walks k's probe run, in a table with slots, to the slot holding
// k or to the empty slot that ends the run.
func (t *table[K, V]) probe(k K) (int, bool) {
	var zero V
	mask := len(t.slots) - 1
	for i := int(maphash.Comparable(hashSeed, k)) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val == zero {
			return i, false
		}
		if s.key == k {
			return i, true
		}
	}
}

// find returns k's slot, if k is held.
func (t *table[K, V]) find(k K) (int, bool) {
	if t.n == 0 {
		return 0, false
	}
	return t.probe(k)
}

// at returns a pointer to slot i's value. It is valid until the next
// claim, put, remove, removeAt or reserve.
func (t *table[K, V]) at(i int) *V { return &t.slots[i].val }

// claim returns k's slot, claiming the empty slot where k belongs when
// k is absent (fresh: its value is zero). The caller must store a
// non-zero value in a fresh slot, or release it with removeAt, before
// the table is used again.
func (t *table[K, V]) claim(k K) (i int, fresh bool) {
	if len(t.slots) > 0 {
		i, ok := t.probe(k)
		if ok {
			return i, false
		}
		if (t.n+1)*tableLoadDen <= len(t.slots)*tableLoadNum {
			t.slots[i].key = k
			t.n++
			return i, true
		}
	}
	t.resize(max(tableMinSlots, 2*len(t.slots)))
	i, _ = t.probe(k)
	t.slots[i].key = k
	t.n++
	return i, true
}

// get returns k's value, or V's zero when k is absent.
func (t *table[K, V]) get(k K) V {
	if i, ok := t.find(k); ok {
		return t.slots[i].val
	}
	var zero V
	return zero
}

// put sets k's value; a zero v removes k.
func (t *table[K, V]) put(k K, v V) {
	var zero V
	if v == zero {
		t.remove(k)
		return
	}
	i, _ := t.claim(k)
	t.slots[i].val = v
}

// remove deletes k, if held.
func (t *table[K, V]) remove(k K) {
	if i, ok := t.find(k); ok {
		t.removeAt(i)
	}
}

// removeAt empties slot i, shifting back every later key of its probe
// run that may sit there: a key whose home slot does not lie in the
// cyclic interval (i, j] it would otherwise have to be found across.
func (t *table[K, V]) removeAt(i int) {
	var zero V
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].val != zero; j = (j + 1) & mask {
		home := int(maphash.Comparable(hashSeed, t.slots[j].key)) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[K, V]{}
	t.n--
}

// reserve sizes the slot array, once, for n keys: a load calls it with
// what it is about to insert, so it neither regrows nor rehashes on the
// way.
func (t *table[K, V]) reserve(n int) {
	if need := (n*tableLoadDen + tableLoadNum - 1) / tableLoadNum; need > len(t.slots) {
		t.resize(max(tableMinSlots, 1<<bits.Len(uint(need-1))))
	}
}

// resize moves every key into a new array of size slots.
func (t *table[K, V]) resize(size int) {
	var zero V
	old := t.slots
	t.slots = make([]tableSlot[K, V], size)
	for _, s := range old {
		if s.val != zero {
			i, _ := t.probe(s.key)
			t.slots[i] = s
		}
	}
}

// each calls f for every key and value, in slot order — an order that
// depends on hashSeed, so f must be order-independent (an integer sum).
// f must not modify the table.
func (t *table[K, V]) each(f func(K, V)) {
	var zero V
	for _, s := range t.slots {
		if s.val != zero {
			f(s.key, s.val)
		}
	}
}
