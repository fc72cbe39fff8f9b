package incremental

import "hash/maphash"

// Per-push scratch of the stateful operators. A push needs two transient
// lookups — "have I seen this record (or key) earlier in this batch?" and
// "which differences of this batch share a key?" — and an MCMC walk asks
// them a thousand times a second about a handful of records, right after a
// bulk load asked them once about every record there is. Both helpers here
// cost what the push in hand costs, never what the largest push so far
// did: small pushes never hash, resetting touches no per-key memory, and
// whatever a bulk load grew is handed back to the allocator when that
// push ends (Recycle).

const (
	// scratchLinear is the distinct-key count up to which a scratchIndex
	// answers lookups by scanning its key slice: at most one cache line
	// of packed keys, cheaper than hashing one of them.
	scratchLinear = 8

	// scratchRetain is the capacity, in elements, beyond which a push
	// outside a transaction releases a per-push buffer rather than keep
	// it for the next push (Recycle).
	scratchRetain = 1 << 10
)

// hashSeed is the process-wide hash seed, shared by every scratchIndex
// and by the sharded executor's record routing.
//
//wpinq:nondeterministic-ok the one sanctioned random seed. A scratchIndex uses it only to pick probe cells — slots are assigned in first-appearance order whatever the seed — and shard routing is documented as per-process (HashSeed); drawn once at init, never on a scoring path
var hashSeed = maphash.MakeSeed()

// HashSeed returns the process-wide hash seed. The sharded executor
// routes records by it: a per-engine seed would send one record to
// different shards in different engine instances, reordering emitted
// batches — and with them every sink's floating-point accumulation —
// between identically-seeded runs. One seed per process makes repeated
// runs (and concurrent replica-exchange chains) reproducible within a
// process; across processes it differs, so multi-shard scores agree only
// to accumulation tolerance (the serial and single-shard executors do
// not route, and are bit-reproducible across processes too).
func HashSeed() maphash.Seed { return hashSeed }

// Recycle empties a per-push buffer for reuse — or releases it, when the
// push was a load that grew it past scratchRetain. Both executors reset
// every per-push buffer through it.
//
// What tells a load from a fit is the transaction: every proposal of a
// fit is pushed inside one (keep), and the only pushes outside one are
// loads — the initial dataset, a checkpoint re-anchor. A load's buffers
// are sized by the whole state and would otherwise outlive it by the
// fit; a fit's own buffers are kept whatever their size, so a fit whose
// proposals are large pays for its high-water mark once, not per
// proposal. The bound only spares plain untracked pushes (tests,
// operator benchmarks) from re-growing small buffers every time.
func Recycle[T any](buf []T, keep bool) []T {
	if !keep && cap(buf) > scratchRetain {
		return nil
	}
	return buf[:0]
}

// scratchIndex assigns dense slots to the distinct keys of one push, in
// first-appearance order. Up to scratchLinear keys it is the key slice
// alone; past that it also keeps an open-addressing table of slots,
// whose cells are stamped with the generation that wrote them so that
// starting over is a generation bump, not a sweep.
type scratchIndex[K comparable] struct {
	keys   []K
	cells  []scratchCell // power-of-two length, at most half full
	gen    uint32        // stamp of the cells written this push; never 0 while hashed
	hashed bool          // cells index keys (this push outgrew scratchLinear)
}

// scratchCell is one table cell: live when its stamp is the current
// generation, empty otherwise.
type scratchCell struct {
	gen  uint32
	slot int32
}

// probe walks k's probe sequence to its cell: the one holding k's slot,
// or the empty one where it belongs.
func (s *scratchIndex[K]) probe(k K) (cell int, slot int, ok bool) {
	mask := uint64(len(s.cells) - 1)
	for p := maphash.Comparable(hashSeed, k) & mask; ; p = (p + 1) & mask {
		c := s.cells[p]
		if c.gen != s.gen {
			return int(p), 0, false
		}
		if s.keys[c.slot] == k {
			return int(p), int(c.slot), true
		}
	}
}

// find returns k's slot, if k was assigned one this push.
func (s *scratchIndex[K]) find(k K) (int, bool) {
	if s.hashed {
		_, i, ok := s.probe(k)
		return i, ok
	}
	for i, x := range s.keys {
		if x == k {
			return i, true
		}
	}
	return 0, false
}

// slot returns k's slot, assigning the next one (fresh) when this is
// k's first appearance in the push.
func (s *scratchIndex[K]) slot(k K) (i int, fresh bool) {
	if !s.hashed {
		for i, x := range s.keys {
			if x == k {
				return i, false
			}
		}
		if len(s.keys) < scratchLinear {
			s.keys = append(s.keys, k)
			return len(s.keys) - 1, true
		}
		s.rehash(max(len(s.cells), 4*scratchLinear))
	}
	cell, i, ok := s.probe(k)
	if ok {
		return i, false
	}
	i = len(s.keys)
	s.keys = append(s.keys, k)
	if 2*len(s.keys) > len(s.cells) {
		s.rehash(2 * len(s.cells))
	} else {
		s.cells[cell] = scratchCell{gen: s.gen, slot: int32(i)}
	}
	return i, true
}

// rehash indexes every key in a table of n cells under a new generation,
// reusing the current table when it is that large already.
func (s *scratchIndex[K]) rehash(n int) {
	if n > len(s.cells) {
		s.cells = make([]scratchCell, n)
	}
	if s.gen++; s.gen == 0 {
		// Wrapped: cells stamped 2^32 pushes ago would read as live.
		clear(s.cells)
		s.gen = 1
	}
	s.hashed = true
	for i, k := range s.keys {
		cell, _, _ := s.probe(k)
		s.cells[cell] = scratchCell{gen: s.gen, slot: int32(i)}
	}
}

// reset forgets every key. The table is left as it is — the next push
// to need it stamps a new generation — unless Recycle releases the keys,
// in which case the table goes with them.
func (s *scratchIndex[K]) reset(keep bool) {
	s.hashed = false
	if s.keys = Recycle(s.keys, keep); s.keys == nil {
		s.cells = nil
	}
}

// keyGrouper partitions one batch by key: keys in first-appearance
// order, each key's differences contiguous and in arrival order — the
// order the operators process and emit in, and so part of the
// determinism contract (see stateMap). It counts each key's differences,
// turns the counts into offsets, and scatters the batch into one flat
// reusable array.
type keyGrouper[K comparable, T comparable] struct {
	idx   scratchIndex[K]
	slots []int32    // slots[j]: key slot of batch[j]
	ends  []int      // after group: ends[i] is where key i's run ends in flat
	flat  []Delta[T] // the batch, stably reordered by key slot
}

// group partitions batch and returns its distinct keys; run(i) is then
// the i-th key's differences. The result is valid until the next group
// or reset.
func (g *keyGrouper[K, T]) group(batch []Delta[T], key func(T) K) []K {
	for _, d := range batch {
		i, fresh := g.idx.slot(key(d.Record))
		if fresh {
			g.ends = append(g.ends, 0)
		}
		g.ends[i]++
		g.slots = append(g.slots, int32(i))
	}
	sum := 0
	for i, c := range g.ends {
		g.ends[i] = sum // the run's start, advanced to its end by the scatter
		sum += c
	}
	if cap(g.flat) < len(batch) {
		g.flat = make([]Delta[T], len(batch))
	}
	g.flat = g.flat[:len(batch)]
	for j, d := range batch {
		i := g.slots[j]
		g.flat[g.ends[i]] = d
		g.ends[i]++
	}
	return g.idx.keys
}

// run returns the differences of the i-th key of the last group call.
func (g *keyGrouper[K, T]) run(i int) []Delta[T] {
	lo := 0
	if i > 0 {
		lo = g.ends[i-1]
	}
	return g.flat[lo:g.ends[i]]
}

// reset empties the grouper once a push has been applied.
func (g *keyGrouper[K, T]) reset(keep bool) {
	g.idx.reset(keep)
	g.slots = Recycle(g.slots, keep)
	g.ends = Recycle(g.ends, keep)
	g.flat = Recycle(g.flat, keep)
}
