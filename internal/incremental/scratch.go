package incremental

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
)

// Per-push scratch of the stateful operators. A push needs two transient
// lookups — "have I seen this record (or key) earlier in this batch?" and
// "which differences of this batch share a key?" — and an MCMC walk asks
// them a thousand times a second about a handful of records, right after a
// bulk load asked them once about every record there is. Both helpers here
// cost what the push in hand costs, never what the largest push so far
// did: small pushes never hash, resetting touches no per-key memory, a
// bulk load sizes what it needs once from what it is about to do
// (reserve) and hands it back to the allocator — or on to the one
// consumer of what it emitted — when that push ends (Recycle).

const (
	// scratchLinear is the distinct-key count up to which a scratchIndex
	// answers lookups by scanning its entries: at most two cache lines
	// of packed keys, cheaper than hashing one of them.
	scratchLinear = 8

	// scratchRetain is the capacity, in elements, beyond which a push
	// outside a transaction releases a per-push buffer rather than keep
	// it for the next push (Recycle).
	scratchRetain = 1 << 10

	// loadChunk is the number of records in each chunk of a distinct
	// join's streamed load (orderedDiff.reserveDistinct): 128 KiB of a
	// paths join's 16-byte differences, and about 120 chunks for a
	// 10⁶-record load.
	loadChunk = 1 << 13
)

// hashSeed is the process-wide hash seed every scratchIndex and state
// table probe hashes under, for every key type (a fixed 64-bit finaliser
// for the packed uint64 keys was tried and dropped, twice: the hash is
// 3 % of a load, the cache miss on the cell it picks is the rest, and a
// seeded multiplicative hash did not separate from this one on walk-hot).
//
//wpinq:nondeterministic-ok the one sanctioned random seed, drawn once at init, never on a scoring path: scratchIndex.probe and table.probe only pick cells with it, slots are assigned in first-appearance order whatever the seed, and nothing but order-independent sums iterates a table, so no result depends on it
var hashSeed = maphash.MakeSeed()

// Recycle empties a per-push buffer for reuse — or releases it,
// returning nil, when the push was a load that grew it past
// scratchRetain. The engine and these operators reset every per-push
// buffer through it, so it is also the one statement of when an emitted
// batch changes hands: a node that emits a buffer and then Recycles it has, when the
// answer is nil, left the emission as the array's only reference, and a
// batch's single receiver — asking Recycle the same question of the same
// array — may then keep it instead of copying it (the engine's node
// output buffers do). Every other emission is the emitter's, to be
// overwritten by its next push.
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
// first-appearance order, and keeps one float per key for its owner
// beside the key — the running sum of a difference accumulator, a
// record's pre-push weight, a record's consolidated delta — so that a
// slot is one array element, and the array of an accumulator is the batch
// it emits. Up to scratchLinear keys the index is that array alone; past
// that it also keeps an open-addressing table of slots, whose cells are
// stamped with the generation that wrote them so that starting over is a
// generation bump, not a sweep.
type scratchIndex[K comparable] struct {
	ents   []Delta[K]    // ents[i]: the i-th distinct key and its owner's float
	cells  []scratchCell // power-of-two length, at most half full
	gen    uint32        // stamp of the cells written this push; never 0 while hashed
	hashed bool          // cells index ents (this push outgrew scratchLinear, or reserved past it)
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
		if s.ents[c.slot].Record == k {
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
	for i := range s.ents {
		if s.ents[i].Record == k {
			return i, true
		}
	}
	return 0, false
}

// slot returns k's slot, assigning the next one (fresh, its float zero)
// when this is k's first appearance in the push.
func (s *scratchIndex[K]) slot(k K) (i int, fresh bool) {
	if !s.hashed {
		for i := range s.ents {
			if s.ents[i].Record == k {
				return i, false
			}
		}
		if len(s.ents) < scratchLinear {
			s.ents = append(s.ents, Delta[K]{Record: k})
			return len(s.ents) - 1, true
		}
		s.rehash(max(len(s.cells), 4*scratchLinear))
	}
	cell, i, ok := s.probe(k)
	if ok {
		return i, false
	}
	i = len(s.ents)
	s.ents = append(s.ents, Delta[K]{Record: k})
	if 2*len(s.ents) > len(s.cells) {
		s.rehash(2 * len(s.cells))
	} else {
		s.cells[cell] = scratchCell{gen: s.gen, slot: int32(i)}
	}
	return i, true
}

// reserve readies an empty index for a push expected to hold n distinct
// keys: the entry array is allocated once at that size and the table is
// built once at its final size, so a push that stays inside n neither
// regrows nor rehashes, and one that outruns it grows as if nothing had
// been reserved. Stateful nodes call it for loads only — pushes outside
// a transaction, whose buffers start from nothing and whose size costs
// one pass over the push's keys; a transaction's buffers already sit at
// the fit's high-water mark. Slots are 32-bit: a push that could need
// more is refused here, before it allocates, rather than left to wrap.
func (s *scratchIndex[K]) reserve(n int) {
	refuseSlots(n)
	s.ents = slices.Grow(s.ents, n)
	if n > scratchLinear {
		s.rehash(max(len(s.cells), 1<<bits.Len(uint(2*n-1))))
	}
}

// refuseSlots panics, naming the limit, if a push could need more than
// the 2³¹−1 entries a 32-bit slot numbers.
func refuseSlots(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("incremental: push of %d distinct records exceeds the %d a scratch index can number", n, math.MaxInt32))
	}
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
	for i := range s.ents {
		cell, _, _ := s.probe(s.ents[i].Record)
		s.cells[cell] = scratchCell{gen: s.gen, slot: int32(i)}
	}
}

// reset forgets every key. The table is left as it is — the next push
// to need it stamps a new generation — unless Recycle releases the
// entries, in which case the table goes with them.
func (s *scratchIndex[K]) reset(keep bool) {
	s.hashed = false
	if s.ents = Recycle(s.ents, keep); s.ents == nil {
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
	idx   scratchIndex[K] // the distinct keys; their floats are unused
	slots []int32         // slots[j]: key slot of batch[j]
	ends  []int           // after group: ends[i] is where key i's run ends in flat
	flat  []Delta[T]      // the batch, stably reordered by key slot
}

// group partitions batch and returns its distinct keys, as the Record of
// each entry; run(i) is then the i-th key's differences. The result is
// valid until the next group or reset.
func (g *keyGrouper[K, T]) group(batch []Delta[T], key func(T) K) []Delta[K] {
	g.slots = slices.Grow(g.slots, len(batch))
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
	return g.idx.ents
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
