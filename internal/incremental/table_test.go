package incremental

import (
	"hash/maphash"
	"maps"
	"math/rand"
	"testing"
)

// toMap copies the table into a Go map, for comparisons.
func (t *table[K, V]) toMap() map[K]V {
	m := make(map[K]V, t.n)
	t.each(func(k K, v V) { m[k] = v })
	return m
}

// checkTable compares tab against its reference ref: the same keys and
// values by every lookup, and a table whose every key is reachable from
// its home slot without crossing an empty one (what a backward shift
// that leaves a hole would break), at most tableLoadNum/tableLoadDen
// full.
func checkTable[K comparable, V comparable](t *testing.T, tab *table[K, V], ref map[K]V) {
	t.Helper()
	if tab.len() != len(ref) {
		t.Fatalf("len = %d, want %d", tab.len(), len(ref))
	}
	if got := tab.toMap(); !maps.Equal(got, ref) {
		t.Fatalf("table holds %v, want %v", got, ref)
	}
	for k, v := range ref {
		if got := tab.get(k); got != v {
			t.Fatalf("get(%v) = %v, want %v", k, got, v)
		}
	}
	if len(tab.slots) == 0 {
		return
	}
	if len(tab.slots)&(len(tab.slots)-1) != 0 || tab.len()*tableLoadDen > len(tab.slots)*tableLoadNum {
		t.Fatalf("%d keys in %d slots", tab.len(), len(tab.slots))
	}
	var zero V
	mask := len(tab.slots) - 1
	for i, s := range tab.slots {
		if s.val == zero {
			continue
		}
		for j := int(maphash.Comparable(hashSeed, s.key)) & mask; j != i; j = (j + 1) & mask {
			if tab.slots[j].val == zero {
				t.Fatalf("key %v in slot %d is cut off from its home by empty slot %d", s.key, i, j)
			}
		}
	}
}

// tableOps drives a table and a map with the same operations, read from
// ops two bytes at a time (an operation and a key), over a small key
// space so that keys collide, are removed and come back. Values are
// never zero except where the zero-value contract is the point: put of
// a zero removes.
func tableOps(t *testing.T, ops []byte) {
	var tab table[uint16, int]
	ref := map[uint16]int{}
	for n := 0; n+1 < len(ops); n += 2 {
		k := uint16(ops[n+1]) % 97
		v := int(ops[n]) + 1
		switch ops[n] % 6 {
		case 0, 1: // insert or update
			tab.put(k, v)
			ref[k] = v
		case 2: // remove, held or not
			tab.remove(k)
			delete(ref, k)
		case 3: // a zero value removes
			tab.put(k, 0)
			delete(ref, k)
		case 4: // claim and fill in place, or claim and give back
			i, fresh := tab.claim(k)
			if _, held := ref[k]; held == fresh {
				t.Fatalf("claim(%d): fresh = %v, held = %v", k, fresh, held)
			}
			if fresh && v%2 == 0 {
				tab.removeAt(i)
				break
			}
			*tab.at(i) = v
			ref[k] = v
		case 5:
			tab.reserve(int(ops[n+1]))
		}
		checkTable(t, &tab, ref)
	}
	var zero int
	for k := uint16(0); k < 97; k++ {
		if _, held := ref[k]; !held && tab.get(k) != zero {
			t.Fatalf("get(%d) of an absent key = %d, want 0", k, tab.get(k))
		}
	}
}

func TestStateTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(ops)
		tableOps(t, ops)
	}
}

func FuzzStateTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 3, 2})
	f.Add([]byte{5, 200, 0, 1, 0, 98, 0, 195, 2, 1, 4, 1, 4, 2})
	f.Fuzz(tableOps)
}

// TestStateTableShiftAcrossWrap fills the last slots of a table and the
// first ones with keys whose home is the last slot, so their probe run
// wraps to slot 0, then removes them one at a time from the front of
// the run: every removal must shift the rest back across the wrap.
func TestStateTableShiftAcrossWrap(t *testing.T) {
	var tab table[uint64, int]
	tab.reserve(8)
	size := len(tab.slots)
	mask := uint64(size - 1)
	var run []uint64
	for k := uint64(0); len(run) < size/2; k++ {
		if maphash.Comparable(hashSeed, k)&mask == mask {
			run = append(run, k)
		}
	}
	ref := map[uint64]int{}
	for i, k := range run {
		tab.put(k, i+1)
		ref[k] = i + 1
	}
	if len(tab.slots) != size {
		t.Fatalf("table grew from %d to %d slots", size, len(tab.slots))
	}
	if i, _ := tab.find(run[len(run)-1]); i >= size-1 {
		t.Fatalf("fixture: the run's last key sits in slot %d, not past the wrap", i)
	}
	checkTable(t, &tab, ref)
	for len(run) > 0 {
		tab.remove(run[0])
		delete(ref, run[0])
		run = run[1:]
		checkTable(t, &tab, ref)
		if len(run) > 0 {
			if i, _ := tab.find(run[0]); i != size-1 {
				t.Fatalf("after a removal the run's first key sits in slot %d, want its home %d", i, size-1)
			}
		}
	}
}

// TestStateTableZeroValue pins the zero-value contract: a zero value is
// an empty slot, so get of an absent key reads zero, put of zero
// removes, and a claimed slot given back holds nothing.
func TestStateTableZeroValue(t *testing.T) {
	var tab table[[2]int, [2]float64]
	if got := tab.get([2]int{1, 2}); got != ([2]float64{}) {
		t.Fatalf("get on an empty table = %v", got)
	}
	tab.put([2]int{1, 2}, [2]float64{0, 3})
	tab.put([2]int{3, 4}, [2]float64{1, 0})
	tab.put([2]int{1, 2}, [2]float64{})
	if tab.len() != 1 || tab.get([2]int{1, 2}) != ([2]float64{}) {
		t.Fatalf("put of zero left %v", tab.toMap())
	}
	i, fresh := tab.claim([2]int{5, 6})
	if !fresh || tab.len() != 2 {
		t.Fatalf("claim of a new key: fresh = %v, len = %d", fresh, tab.len())
	}
	tab.removeAt(i)
	checkTable(t, &tab, map[[2]int][2]float64{{3, 4}: {1, 0}})
}

// TestStateTableReserveHoldsItsCount pins reserve: n keys inserted after
// reserve(n) never grow the slot array.
func TestStateTableReserveHoldsItsCount(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 100, 1000} {
		var tab table[uint64, int]
		tab.reserve(n)
		size := len(tab.slots)
		for i := 0; i < n; i++ {
			tab.put(uint64(i)*0x9e3779b97f4a7c15, i+1)
		}
		if len(tab.slots) != size {
			t.Errorf("reserve(%d): %d slots grew to %d", n, size, len(tab.slots))
		}
	}
}
