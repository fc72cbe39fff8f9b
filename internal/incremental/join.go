package incremental

import (
	"math"

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
// One rule, joinUpdateSide, serves both sides. Its fast path is always
// on: it makes a TbI proposal about three times cheaper (DESIGN.md, "Join
// fast path, always on"). FastKeys and SlowKeys count each path's updates.
//
// A join built by JoinDistinct declares that no two matching pairs reduce
// to the same record. A load onto it — a push outside a transaction
// whose keys all had an empty own side — then appends each record it
// asserts straight to the output batch, with no accumulator table: the
// batch is the one the accumulator would emit, element for element.
type JoinNode[A, B comparable, K comparable, R comparable] struct {
	emit   Handler[R]
	keyA   func(A) K
	keyB   func(B) K
	reduce func(A, B) R

	// Both sides of a key live in one group under one table entry: every
	// key update reads one side's records and the other's norm, so a
	// push costs one lookup and one pointer chase per key. A group stays
	// in the table while either side holds records.
	groups table[K, *joinGroup[A, B]]

	// Freelist of dropped key groups. MCMC walks churn groups (a key
	// empties when its last record swaps away, then reappears), so
	// dropped groups are recycled rather than released.
	pool groupPool[joinGroup[A, B]]

	distinct bool // set at construction (JoinDistinct); no setter
	stats    joinStats

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

	// Transaction state: one undo log per side, shared by every group,
	// and the groups first touched this transaction (their stateMaps log
	// to logA/logB), in touch order. As in GroupByNode, dropping empty
	// groups is deferred to commit so Abort can restore them in place.
	logging bool
	logA    undoLog[A]
	logB    undoLog[B]
	touched []touchedGroup[K, joinGroup[A, B]]
}

// joinGroup is one key's state: the records of each side under that key.
type joinGroup[A, B comparable] struct {
	a stateMap[A]
	b stateMap[B]
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
func JoinDistinct[A, B comparable, K comparable, R comparable](
	keyA func(A) K, keyB func(B) K,
	reduce func(A, B) R, out Handler[R],
) *JoinNode[A, B, K, R] {
	n := Join(keyA, keyB, reduce, out)
	n.distinct = true
	return n
}

// Txn applies a transaction event to every group touched since Begin —
// O(touched keys), opened lazily by group.
func (n *JoinNode[A, B, K, R]) Txn(op TxnOp) {
	n.logging = op == TxnBegin
	switch op {
	case TxnCommit:
		n.logA.commit()
		n.logB.commit()
		for _, t := range n.touched {
			t.g.a.endLog()
			t.g.b.endLog()
			n.drop(t.k, t.g)
		}
		n.touched = n.touched[:0]
	case TxnAbort:
		// The two sides are disjoint state; each unwinds its own log.
		n.logA.abort()
		n.logB.abort()
		for _, t := range n.touched {
			t.g.a.endLog()
			t.g.b.endLog()
			if t.created {
				n.drop(t.k, t.g) // unwound to empty on both sides
			}
		}
		n.touched = n.touched[:0]
	}
}

// FastKeys returns the number of key updates resolved via the fast path.
func (n *JoinNode[A, B, K, R]) FastKeys() int64 { return n.stats.fastKeys }

// SlowKeys returns the number of key updates that required rescaling.
func (n *JoinNode[A, B, K, R]) SlowKeys() int64 { return n.stats.slowKeys }

// StateSize returns the number of records indexed across both sides and
// all keys: the node's memory footprint in records.
func (n *JoinNode[A, B, K, R]) StateSize() int {
	total := 0
	//wpinq:nondeterministic-ok integer sum over group sizes is order-independent; diagnostics only
	n.groups.each(func(_ K, g *joinGroup[A, B]) { total += g.a.len() + g.b.len() })
	return total
}

// ApplyLeft and ApplyRight apply a batch of one side's differences (see
// applySide).
func (n *JoinNode[A, B, K, R]) ApplyLeft(batch []Delta[A]) {
	applySide(n, batch, n.keyA, &n.byKeyA, &n.scratchA, leftSide[A, B], n.reduce)
}

func (n *JoinNode[A, B, K, R]) ApplyRight(batch []Delta[B]) {
	applySide(n, batch, n.keyB, &n.byKeyB, &n.scratchB, rightSide[A, B], func(y B, x A) R { return n.reduce(x, y) })
}

// leftSide and rightSide pick a group's (own, other) sides for a push.
func leftSide[A, B comparable](g *joinGroup[A, B]) (*stateMap[A], *stateMap[B])  { return &g.a, &g.b }
func rightSide[A, B comparable](g *joinGroup[A, B]) (*stateMap[B], *stateMap[A]) { return &g.b, &g.a }

// applySide applies one side's batch key by key. X is the pushed side's
// record type and Y the other's; sides picks (own, other) from a group,
// and reduce takes (own record, other record) — the node's reduce,
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
// group table is reserved for the keys the push is about to add.
func applySide[A, B, K, R, X, Y comparable](
	n *JoinNode[A, B, K, R],
	batch []Delta[X], key func(X) K,
	byKey *keyGrouper[K, X], scratch *scratchIndex[X],
	sides func(*joinGroup[A, B]) (*stateMap[X], *stateMap[Y]),
	reduce func(X, Y) R,
) {
	inTxn := n.logging
	keys := byKey.group(batch, key)
	if !inTxn {
		size, fresh, load := 0, 0, true
		for i, e := range keys {
			if g := n.groups.get(e.Record); g != nil {
				own, other := sides(g)
				size += len(byKey.run(i)) * other.len()
				load = load && own.len() == 0
			} else {
				fresh++
			}
		}
		n.reserve(size, fresh, load)
	}
	for i, e := range keys {
		k := e.Record
		g := n.group(k)
		own, other := sides(g)
		joinUpdateSide(&n.stats, byKey.run(i), own, other, reduce, scratch, &n.diff)
		scratch.reset(inTxn)
		if !inTxn {
			n.drop(k, g)
		}
	}
	byKey.reset(inTxn)
	n.emit.send(n.diff.takeBatch(inTxn))
}

// reserve sizes the accumulator for a push outside a transaction that
// asserts size records, and the group table for fresh new keys; load
// reports that every key's own side was empty.
func (n *JoinNode[A, B, K, R]) reserve(size, fresh int, load bool) {
	n.groups.reserve(n.groups.len() + fresh)
	if n.distinct && load {
		n.diff.reserveDistinct(size)
		return
	}
	n.diff.reserve(size)
}

// group returns k's group, creating it if the key is new, and opens it
// in the current transaction, if any, on first touch.
func (n *JoinNode[A, B, K, R]) group(k K) *joinGroup[A, B] {
	i, created := n.groups.claim(k)
	slot := n.groups.at(i)
	if created {
		*slot = n.pool.get()
	}
	g := *slot
	if n.logging && g.a.log == nil {
		g.a.beginLog(&n.logA)
		g.b.beginLog(&n.logB)
		n.touched = append(n.touched, touchedGroup[K, joinGroup[A, B]]{k: k, g: g, created: created})
	}
	return g
}

// drop retires whatever of k's group has drained, so long random walks
// do not leak memory through abandoned keys: an empty side is recycled
// in place (its norm must read exactly zero the next time the key's
// denominator is formed, as a fresh group's would), and a group empty on
// both sides leaves the table for the freelist. Inside a transaction the
// callers defer this to commit (an empty side joins to nothing, so
// keeping it changes no arithmetic) so Abort can restore the group in
// place.
//
//wpinq:txn-exempt runs only outside a transaction or from Txn once the group's logs are resolved; a group dropped while open would be written by abort after the pool reissued it
func (n *JoinNode[A, B, K, R]) drop(k K, g *joinGroup[A, B]) {
	emptyA, emptyB := g.a.len() == 0, g.b.len() == 0
	if emptyA {
		g.a.recycle()
	}
	if emptyB {
		g.b.recycle()
	}
	if emptyA && emptyB {
		n.groups.remove(k)
		n.pool.put(g)
	}
}

// joinUpdateSide is the join's one update rule (see JoinNode): it applies
// one key's differences ds to own and accumulates the output differences
// against other into diff, through reduce(own record, other record).
func joinUpdateSide[X, Y comparable, R comparable](
	stats *joinStats,
	ds []Delta[X],
	own *stateMap[X], other *stateMap[Y],
	reduce func(X, Y) R,
	scratch *scratchIndex[X],
	diff *orderedDiff[R],
) {
	otherNorm := other.norm
	oldDenom := own.norm + otherNorm

	// Apply differences, remembering each touched record's pre-push
	// weight — apply's pre-image at its first touch — in first-touch order
	// (the caller resets the scratch).
	for _, d := range ds {
		oldW, _ := own.apply(d.Record, d.Weight)
		if i, fresh := scratch.slot(d.Record); fresh {
			scratch.ents[i].Weight = oldW
		}
	}
	touched := scratch.ents // Weight: the record's pre-push weight
	newDenom := own.norm + otherNorm

	if other.len() == 0 {
		// No matches: the key contributes no outputs before or after.
		return
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
		return
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
}
