package incremental

import (
	"math"
	"slices"

	"wpinq/internal/weighted"
)

// JoinNode incrementally maintains wPINQ's normalized Join (paper Section
// 2.7 and Appendix B). For each side it indexes records by key and tracks
// each key group's norm. When differences arrive for a key:
//
//   - Fast path: if the arriving side's group norm is unchanged (common in
//     edge-swapping random walks, where an edge moves rather than appears
//     or disappears), the denominator ||A_k|| + ||B_k|| is unchanged and
//     the output difference is just a_k x B_k / denom — work proportional
//     to the difference, not the group.
//   - Slow path: the denominator changed, so every output record under the
//     key must be rescaled: the node retracts the key's old outer product
//     and asserts the new one.
//
// Both sides of a key live in one group, the first record of each inline
// (see joinGroup), in one flat array the key's index entry names: a key
// whose sides hold one record each — every key of JDD's edge-keyed
// self-join — costs one probe, no allocation and nothing for the
// collector to trace. A side spills to a stateMap at its second record.
//
// One rule, joinUpdateSide, serves both sides. Its fast path is always
// on: it makes a TbI proposal about three times cheaper (DESIGN.md, "Join
// fast path, always on"). FastKeys and SlowKeys count each path's updates.
//
// A join built by JoinDistinct declares that no two matching pairs reduce
// to the same record. A load onto it — a push outside a transaction
// whose keys all had an empty own side — then appends each record it
// asserts straight to the output batch, with no accumulator table: the
// batch is the one the accumulator would emit, element for element.
// When its receiver takes a load in any number of batches, the load
// emits that batch in chunks of loadChunk records as they fill, and
// never holds more than one.
type JoinNode[A, B comparable, K comparable, R comparable] struct {
	emit   Handler[R]
	keyA   func(A) K
	keyB   func(B) K
	reduce func(A, B) R

	// index maps each key to the 1-based position of its group in
	// groups. A position stays put while its key is held, so nothing
	// that outlives a key update points into the index, which a claim
	// may resize and a removal backshift; a dropped key's position is
	// reissued from free.
	index  table[K, int32]
	groups []joinGroup[A, B]
	free   []int32
	a      joinStore[A]
	b      joinStore[B]

	distinct bool // set at construction (JoinDistinct); no setter
	// streams, set at construction (JoinDistinct), reports whether emit
	// takes a load in chunks; nil: in one batch.
	streams func() bool
	stats   joinStats
	// size is the number of records indexed across both sides and all
	// keys (StateSize); sizeAtBegin is its value at TxnBegin.
	size, sizeAtBegin int

	// Per-push scratch (see scratch.go), reused across pushes so hot
	// loops do not re-allocate a grouping and a difference accumulator —
	// which is the output batch — per push. Safe because emitted batches
	// are owned by this node and handlers must not retain them. Keys are
	// processed — and differences emitted — in first-appearance order
	// (see stateMap).
	byKeyA   keyGrouper[K, A]
	byKeyB   keyGrouper[K, B]
	scratchA scratchIndex[A] // joinUpdateSide's touched records and their pre-push weights
	scratchB scratchIndex[B]
	diff     orderedDiff[R]

	// Transaction state: each group first touched inside a transaction,
	// with its key and a copy of it as it was (zero: the key was
	// absent), in touch order; each side's spills log their mutations to
	// the side's undo log. As in GroupByNode, dropping drained sides and
	// groups is deferred to commit, so that abort puts every group back
	// at its index.
	logging bool
	touched []joinTouched[K, A, B]
}

// joinGroup is one key's state: each side's inline fields and, once the
// side has held two records at once, the 1-based index of its spill in
// the side's pool (0: inline). A spilled side keeps its records, weights
// and norm in the spill, and its inline fields read zero; it comes back
// inline when it drains, at the drop. open marks a group touched in the
// current transaction.
type joinGroup[A, B comparable] struct {
	a     joinSide[A]
	b     joinSide[B]
	spill [2]int32
	open  bool
}

// empty reports whether the group holds nothing: both sides inline and
// empty (an empty inline side is the zero joinSide).
func (g *joinGroup[A, B]) empty() bool {
	return g.a.w == 0 && g.b.w == 0 && g.spill == [2]int32{}
}

// joinSide is one side of a key group while it has not spilled: its one
// record, if it holds one (w ≠ 0 — a held weight never reads zero). Its
// norm is |w|, exactly what a stateMap's would read: an inline side only
// ever goes from empty to one record and back, whose norms, 0 + |w| and
// |w| − |w|, are exact, and a drained side is reset at the drop. An
// update of the held record's weight in place, whose norm
// |w| + (|w'| − |w|) may carry float dust, spills first.
type joinSide[T comparable] struct {
	rec T
	w   float64
}

// joinStore is what a join keeps per side beside its groups: the spills
// and the undo log they write inside a transaction.
type joinStore[T comparable] struct {
	spills spillPool[T]
	log    undoLog[T]
}

// joinTouched is a group first touched inside a transaction: its key,
// its index and the group as the transaction found it.
type joinTouched[K, A, B comparable] struct {
	k   K
	i   int32
	was joinGroup[A, B]
}

// joinStats counts key-updates taken through each path.
type joinStats struct {
	fastKeys int64
	slowKeys int64
}

// Join builds an incremental join of two difference streams whose output
// differences go to out.
func Join[A, B comparable, K comparable, R comparable](
	keyA func(A) K, keyB func(B) K,
	reduce func(A, B) R, out Handler[R],
) *JoinNode[A, B, K, R] {
	return &JoinNode[A, B, K, R]{
		emit:   out,
		keyA:   keyA,
		keyB:   keyB,
		reduce: reduce,
	}
}

// JoinDistinct is Join for a reduce under which no two matching pairs
// (x, y) give the same record: its loads skip the accumulator's table.
// A reduce that can collapse pairs must use Join, whose loads merge them.
// streams, if not nil, is asked at each load whether out takes it in any
// number of batches — keeping none of them — rather than in one; when it
// does, the load is emitted in chunks of loadChunk records.
func JoinDistinct[A, B comparable, K comparable, R comparable](
	keyA func(A) K, keyB func(B) K,
	reduce func(A, B) R, out Handler[R], streams func() bool,
) *JoinNode[A, B, K, R] {
	n := Join(keyA, keyB, reduce, out)
	n.distinct, n.streams = true, streams
	return n
}

// Txn applies a transaction event to every group touched since Begin —
// O(touched keys). Abort first unwinds the spills' logs, then puts back
// each touched group as the transaction found it, newest first; a spill
// the transaction made has unwound to empty and returns to its pool, and
// a group it made leaves the index, its position freed in the reverse
// order of the claims, which leaves the free positions as they were.
func (n *JoinNode[A, B, K, R]) Txn(op TxnOp) {
	n.logging = op == TxnBegin
	switch op {
	case TxnBegin:
		n.sizeAtBegin = n.size
		return
	case TxnCommit:
		n.a.log.commit()
		n.b.log.commit()
		for _, t := range n.touched {
			g := n.group(t.i)
			g.open = false
			n.a.spills.end(g.spill[0], true)
			n.b.spills.end(g.spill[1], true)
			n.drop(t.k, t.i)
		}
	case TxnAbort:
		n.size = n.sizeAtBegin
		n.a.log.abort()
		n.b.log.abort()
		for i := len(n.touched) - 1; i >= 0; i-- {
			t := &n.touched[i]
			g := n.group(t.i)
			n.a.spills.end(g.spill[0], g.spill[0] == t.was.spill[0])
			n.b.spills.end(g.spill[1], g.spill[1] == t.was.spill[1])
			*g = t.was
			if g.empty() {
				n.release(t.k, t.i)
			}
		}
	}
	n.touched = n.touched[:0]
}

// FastKeys returns the number of key updates resolved via the fast path.
func (n *JoinNode[A, B, K, R]) FastKeys() int64 { return n.stats.fastKeys }

// SlowKeys returns the number of key updates that required rescaling.
func (n *JoinNode[A, B, K, R]) SlowKeys() int64 { return n.stats.slowKeys }

// StateSize returns the number of records indexed across both sides and
// all keys: the node's memory footprint in records.
func (n *JoinNode[A, B, K, R]) StateSize() int { return n.size }

// ApplyLeft and ApplyRight apply a batch of one side's differences (see
// applySide).
func (n *JoinNode[A, B, K, R]) ApplyLeft(batch []Delta[A]) {
	applySide(n, batch, n.keyA, &n.byKeyA, &n.scratchA, &n.a, &n.b, leftSide[A, B], n.reduce)
}

func (n *JoinNode[A, B, K, R]) ApplyRight(batch []Delta[B]) {
	applySide(n, batch, n.keyB, &n.byKeyB, &n.scratchB, &n.b, &n.a, rightSide[A, B], func(y B, x A) R { return n.reduce(x, y) })
}

// leftSide and rightSide pick a group's (own, other) sides for a push:
// each side's inline fields and spill reference.
func leftSide[A, B comparable](g *joinGroup[A, B]) (*joinSide[A], *int32, *joinSide[B], *int32) {
	return &g.a, &g.spill[0], &g.b, &g.spill[1]
}

func rightSide[A, B comparable](g *joinGroup[A, B]) (*joinSide[B], *int32, *joinSide[A], *int32) {
	return &g.b, &g.spill[1], &g.a, &g.spill[0]
}

// applySide applies one side's batch key by key. X is the pushed side's
// record type and Y the other's, ownStore and otherStore their stores;
// sides picks (own, other) from a group, and reduce takes (own record, other record) — the node's reduce,
// swapped for the right side — so every emitted record is reduce(A, B).
// Outside a transaction it first reserves the accumulator for what the
// push asserts: under each key, every difference of the run against
// every record the other side holds. For a load — every key's own side
// is empty, and the other holds what the same push put there a moment
// ago, or nothing — that is exactly the distinct records it will
// accumulate; a key that also has to retract and rescale records it
// already held (no load does) grows past it as any push grows. A load
// only asserts, each matching pair once, so at a distinct join its
// records cannot meet and it reserves no table (reserveDistinct). The
// index and the groups are reserved for the keys the push is about to
// add.
func applySide[A, B, K, R, X, Y comparable](
	n *JoinNode[A, B, K, R],
	batch []Delta[X], key func(X) K,
	byKey *keyGrouper[K, X], scratch *scratchIndex[X],
	ownStore *joinStore[X], otherStore *joinStore[Y],
	sides func(*joinGroup[A, B]) (*joinSide[X], *int32, *joinSide[Y], *int32),
	reduce func(X, Y) R,
) {
	inTxn := n.logging
	if !inTxn {
		// A load's second side meets, mostly, the keys its first side
		// made: size the grouping for as many, or for every record if
		// fewer, rather than regrow it key by key.
		byKey.idx.reserve(min(len(batch), n.index.len()))
	}
	keys := byKey.group(batch, key)
	if !inTxn {
		size, fresh, load := 0, len(keys), true
		for i, e := range keys {
			if j, ok := n.index.find(e.Record); ok {
				in, spill, otherIn, otherSpill := sides(n.group(*n.index.at(j)))
				own, other := ownStore.side(in, spill, false), otherStore.side(otherIn, otherSpill, false)
				size += len(byKey.run(i)) * other.len()
				load = load && own.len() == 0
				fresh--
			}
		}
		n.reserve(size, fresh, load)
	}
	for i, e := range keys {
		k := e.Record
		gi, g := n.claim(k)
		in, spill, otherIn, otherSpill := sides(g)
		own, other := ownStore.side(in, spill, inTxn), otherStore.side(otherIn, otherSpill, inTxn)
		n.size += joinUpdateSide(&n.stats, byKey.run(i), &own, &other, reduce, scratch, &n.diff)
		scratch.reset(inTxn)
		if !inTxn {
			n.drop(k, gi)
		}
	}
	byKey.reset(inTxn)
	n.emit.send(n.diff.takeBatch(inTxn))
}

// reserve sizes the accumulator for a push outside a transaction that
// asserts size records, and the index and the groups for fresh new keys;
// load reports that every key's own side was empty.
//
//wpinq:txn-exempt runs only for a push outside a transaction (applySide); it sizes the groups array, which holds the same groups after it
func (n *JoinNode[A, B, K, R]) reserve(size, fresh int, load bool) {
	n.index.reserve(n.index.len() + fresh)
	n.groups = slices.Grow(n.groups, max(0, fresh-len(n.free)))
	if n.distinct && load {
		var chunks Handler[R]
		if n.streams != nil && n.streams() {
			chunks = n.emit
		}
		n.diff.reserveDistinct(size, chunks)
		return
	}
	n.diff.reserve(size)
}

// group returns the group at index i. The pointer is valid until the
// next claim.
func (n *JoinNode[A, B, K, R]) group(i int32) *joinGroup[A, B] { return &n.groups[i-1] }

// claim returns k's group and its index, giving a new key an empty
// group: the index a key dropped last, or a new one. Inside a
// transaction it logs the group as the transaction found it, on first
// touch.
func (n *JoinNode[A, B, K, R]) claim(k K) (int32, *joinGroup[A, B]) {
	var i int32
	if j, fresh := n.index.claim(k); !fresh {
		i = *n.index.at(j)
	} else {
		if last := len(n.free) - 1; last >= 0 {
			i, n.free = n.free[last], n.free[:last]
		} else {
			n.groups = append(n.groups, joinGroup[A, B]{})
			i = int32(len(n.groups))
		}
		*n.index.at(j) = i
	}
	g := n.group(i)
	if n.logging && !g.open {
		n.touched = append(n.touched, joinTouched[K, A, B]{k, i, *g})
		g.open = true
	}
	return i, g
}

// release removes k, whose group at index i is empty, and frees i.
//
//wpinq:txn-exempt runs from drop, outside a transaction or at commit, and from Txn at abort, where it frees the indices the transaction claimed in the reverse order it claimed them
func (n *JoinNode[A, B, K, R]) release(k K, i int32) {
	n.index.remove(k)
	n.free = append(n.free, i)
}

// drop retires whatever of k's group has drained, so long random walks
// do not leak memory through abandoned keys: a spill its side fits
// inline again returns to its pool (spillPool.settle) — an empty side
// then reads as the zero side, whose norm is exactly zero the next time
// the key's denominator is formed, as a fresh group's would, where a
// drained spill's can carry float dust — and an empty group leaves the
// index. Inside a transaction the callers defer this to commit (an
// empty side joins to nothing, so keeping it changes no arithmetic) so
// Abort can restore the group as it was.
//
//wpinq:txn-exempt runs only outside a transaction or from Txn once the spills' logs are resolved; a spill released while open would be written by abort after the pool reissued it
func (n *JoinNode[A, B, K, R]) drop(k K, i int32) {
	g := n.group(i)
	n.a.spills.settle(&g.spill[0], &g.a)
	n.b.spills.settle(&g.spill[1], &g.b)
	if g.empty() {
		n.release(k, i)
	}
}

// side is one side of a key group as a key update sees it: the inline
// fields in the group, its spill reference there, and the spill itself
// once the side has spilled. It is valid for one key update: the groups
// move when a claim grows them.
type side[T comparable] struct {
	in    *joinSide[T]
	spill *int32
	m     *stateMap[T] // the spill; nil while inline
	store *joinStore[T]
	log   bool // the update is inside a transaction
}

// side returns the view of a group's side whose inline fields are in
// and whose spill reference is spill; inside a transaction, the spill's
// mutations log to the side's undo log.
func (st *joinStore[T]) side(in *joinSide[T], spill *int32, logging bool) side[T] {
	s := side[T]{in: in, spill: spill, store: st, log: logging}
	if *spill != 0 {
		s.m = st.spills.at(*spill)
		if logging {
			s.m.beginLog(&st.log)
		}
	}
	return s
}

// len returns the number of records the side holds.
func (s *side[T]) len() int {
	if s.m != nil {
		return s.m.len()
	}
	if s.in.w != 0 {
		return 1
	}
	return 0
}

// norm returns the side's norm.
func (s *side[T]) norm() float64 {
	if s.m != nil {
		return s.m.norm
	}
	return math.Abs(s.in.w)
}

// weight returns x's weight on the side.
func (s *side[T]) weight(x T) float64 {
	if s.m != nil {
		return s.m.weight(x)
	}
	if s.in.w != 0 && s.in.rec == x {
		return s.in.w
	}
	return 0
}

// each visits the side's records in stateMap order.
func (s *side[T]) each(f func(x T, w float64)) {
	if s.m != nil {
		s.m.each(f)
	} else if s.in.w != 0 {
		f(s.in.rec, s.in.w)
	}
}

// apply is stateMap.apply on the side, with the same arithmetic. An
// inline side takes a record into an empty side and drops its record;
// anything else — a second record, or an update of its record's weight
// in place — spills first (spillOut).
func (s *side[T]) apply(x T, delta float64) (oldW, newW float64) {
	if s.m == nil {
		in := s.in
		held := in.w != 0 && in.rec == x
		if held {
			oldW = in.w
		}
		newW = oldW + delta
		if math.Abs(newW) < weighted.Eps {
			newW = 0
		}
		switch {
		case newW == 0 && held: // drop the record
			*in = joinSide[T]{}
			return oldW, newW
		case newW == 0: // nothing to hold or drop
			return oldW, newW
		case in.w == 0: // take the first record
			in.rec, in.w = x, newW
			return oldW, newW
		}
		s.spillOut()
	}
	return s.m.apply(x, delta)
}

// spillOut moves an inline side into a new spill, which then goes on
// exactly as one stateMap would have from the start: a held record's
// norm there is 0 + |w|, which is |w|. Inside a transaction the move is
// logged, so that abort unwinds a spill it made to empty.
func (s *side[T]) spillOut() {
	in := s.in
	*s.spill = s.store.spills.get()
	s.m = s.store.spills.at(*s.spill)
	if s.log {
		s.m.beginLog(&s.store.log)
	}
	if in.w != 0 {
		s.m.apply(in.rec, in.w)
		*in = joinSide[T]{}
	}
}

// expect readies the side for a run of n > 1 differences outside a
// transaction — a load's, which asserts records: the run spills the
// side before its first, since its second would, and the spill makes
// room for n more records at once, where its slices would otherwise
// double their way up. A proposal's runs, inside a transaction, are
// left alone.
func (s *side[T]) expect(n int) {
	if s.m == nil {
		s.spillOut()
	}
	s.m.grow(n)
}

// joinUpdateSide is the join's one update rule (see JoinNode): it applies
// one key's differences ds to own and accumulates the output differences
// against other into diff, through reduce(own record, other record). It
// returns by how many records own grew.
func joinUpdateSide[X, Y comparable, R comparable](
	stats *joinStats,
	ds []Delta[X],
	own *side[X], other *side[Y],
	reduce func(X, Y) R,
	scratch *scratchIndex[X],
	diff *orderedDiff[R],
) (grew int) {
	otherNorm := other.norm()
	oldDenom := own.norm() + otherNorm

	// Apply differences, remembering each touched record's pre-push
	// weight — apply's pre-image at its first touch — in first-touch order
	// (the caller resets the scratch).
	before := own.len()
	if !own.log && len(ds) > 1 {
		own.expect(len(ds))
	}
	for _, d := range ds {
		oldW, _ := own.apply(d.Record, d.Weight)
		if i, fresh := scratch.slot(d.Record); fresh {
			scratch.ents[i].Weight = oldW
		}
	}
	grew = own.len() - before
	touched := scratch.ents // Weight: the record's pre-push weight
	newDenom := own.norm() + otherNorm

	if other.len() == 0 {
		// No matches: the key contributes no outputs before or after.
		return grew
	}

	if math.Abs(newDenom-oldDenom) < weighted.Eps && oldDenom >= weighted.Eps {
		stats.fastKeys++
		for _, t := range touched {
			x, dw := t.Record, own.weight(t.Record)-t.Weight
			if math.Abs(dw) < weighted.Eps {
				continue
			}
			other.each(func(y Y, wy float64) {
				diff.add(reduce(x, y), dw*wy/oldDenom)
			})
		}
		return grew
	}

	stats.slowKeys++
	// Retract the old outer product under the old denominator.
	if oldDenom >= weighted.Eps {
		for _, t := range touched {
			x, oldW := t.Record, t.Weight
			if oldW == 0 {
				continue
			}
			other.each(func(y Y, wy float64) {
				diff.add(reduce(x, y), -oldW*wy/oldDenom)
			})
		}
		own.each(func(x X, wx float64) {
			if _, changed := scratch.find(x); changed {
				return
			}
			other.each(func(y Y, wy float64) {
				diff.add(reduce(x, y), -wx*wy/oldDenom)
			})
		})
	}
	// Assert the new outer product under the new denominator.
	if newDenom >= weighted.Eps {
		own.each(func(x X, wx float64) {
			other.each(func(y Y, wy float64) {
				diff.add(reduce(x, y), wx*wy/newDenom)
			})
		})
	}
	return grew
}
