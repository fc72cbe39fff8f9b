package incremental

import (
	"math"
	"slices"

	"wpinq/internal/weighted"
)

// Stateful unary and element-wise binary operators (Appendix B). Each
// maintains a record-weight index so that an input difference can be
// translated into the exact difference of outputs, and hands that
// difference to the handler it was built with.

// IntersectNode is the body of Intersect: an element-wise minimum with
// both inputs' current weights indexed. One table holds each record's
// pair of weights — left, right — so a difference on either side costs
// one probe, which finds the weight it changes and the one it is compared
// with; a record leaves the table when both are zero. Nothing iterates
// the table: output follows the input batch, difference by difference.
type IntersectNode[T comparable] struct {
	emit  Handler[T]
	state table[T, [2]float64]
	sizes [2]int // records with a non-zero weight, per side
	// logging is set between TxnBegin and TxnCommit/TxnAbort: pushes are
	// speculative. The engine tells each event once, so a flag is all a
	// body keeps. undo holds the pre-image pair of every difference the
	// transaction applied, in order; Abort puts them back newest first.
	logging bool
	undo    []intersectUndo[T]

	// Output batch, reused across pushes — the same array, unless Recycle
	// releases it: handlers must not retain emitted batches and emission
	// is synchronous.
	out []Delta[T]
}

// intersectUndo is one logged IntersectNode difference: the record and its
// pair of weights before it.
type intersectUndo[T comparable] struct {
	x   T
	old [2]float64
}

// Txn applies a transaction event: Abort replays the undo log last in,
// first out, which leaves every pair, and so the table's key set and
// the side counts, as Begin found them.
func (n *IntersectNode[T]) Txn(op TxnOp) {
	n.logging = op == TxnBegin
	if op == TxnAbort {
		for k := len(n.undo) - 1; k >= 0; k-- {
			u := &n.undo[k]
			i, _ := n.state.claim(u.x)
			n.set(i, u.x, *n.state.at(i), u.old)
		}
	}
	n.undo = n.undo[:0]
}

// Intersect incrementally computes the element-wise minimum of two
// streams, handing its output differences to out. It maintains both
// inputs' current weights; a difference on either side changes the
// output only when it moves the minimum.
func Intersect[T comparable](out Handler[T]) *IntersectNode[T] {
	return &IntersectNode[T]{emit: out}
}

// StateSize returns the number of records indexed across both inputs: the
// node's memory footprint in records (paper Section 4.3 observes this
// grows with the number of length-two paths for the triangle queries).
func (n *IntersectNode[T]) StateSize() int { return n.sizes[0] + n.sizes[1] }

// ApplyLeft applies a batch of the left input's differences.
func (n *IntersectNode[T]) ApplyLeft(batch []Delta[T]) { n.apply(batch, 0) }

// ApplyRight applies a batch of the right input's differences.
func (n *IntersectNode[T]) ApplyRight(batch []Delta[T]) { n.apply(batch, 1) }

// apply adds each difference to its record's weight on side own.
// Weights with magnitude below weighted.Eps collapse to exactly zero, as
// weighted.Dataset's do. A load reserves the table for a new record per
// difference, which is what it adds when the two sides share few
// records, as TbI's rotated paths and paths do.
func (n *IntersectNode[T]) apply(batch []Delta[T], own int) {
	if !n.logging {
		n.state.reserve(n.state.len() + len(batch))
	}
	out := slices.Grow(n.out, len(batch))
	for _, d := range batch {
		i, _ := n.state.claim(d.Record)
		old := *n.state.at(i)
		oldW, ow := old[own], old[1-own]
		newW := oldW + d.Weight
		if math.Abs(newW) < weighted.Eps {
			newW = 0
		}
		pair := old
		pair[own] = newW
		n.set(i, d.Record, old, pair)
		diff := math.Min(newW, ow) - math.Min(oldW, ow)
		if math.Abs(diff) >= weighted.Eps {
			out = append(out, Delta[T]{d.Record, diff})
		}
	}
	n.emit.send(out)
	n.out = Recycle(out, n.logging)
}

// set replaces record x's pair old, in its claimed slot i, with pair:
// it logs old inside a transaction, keeps the side counts, and empties
// the slot when pair is zero.
func (n *IntersectNode[T]) set(i int, x T, old, pair [2]float64) {
	if n.logging && pair != old {
		n.undo = append(n.undo, intersectUndo[T]{x, old})
	}
	for side := range pair {
		if (old[side] != 0) != (pair[side] != 0) {
			if pair[side] != 0 {
				n.sizes[side]++
			} else {
				n.sizes[side]--
			}
		}
	}
	if pair == ([2]float64{}) {
		n.state.removeAt(i)
		return
	}
	*n.state.at(i) = pair
}

// GroupByNode is the body of GroupBy.
type GroupByNode[T comparable, K comparable, R comparable] struct {
	emit   Handler[weighted.Grouped[K, R]]
	groups table[K, *stateMap[T]]
	key    func(T) K
	reduce func([]T) R

	// Freelist of dropped groups; see groupPool.
	pool groupPool[stateMap[T]]

	// Per-push scratch (see scratch.go), reused across pushes so hot
	// loops do not re-allocate a grouping and a difference accumulator
	// per batch. Safe because emitted batches are owned by this node and
	// handlers must not retain them. Keys are processed — and
	// differences emitted — in first-appearance order (see stateMap).
	byKey   keyGrouper[K, T]
	members []weighted.Pair[T] // expand's copy of a group not in weight order,
	recs    []T                // its records filtered and sorted,
	ws      []float64          // and their weights
	diff    orderedDiff[weighted.Grouped[K, R]]

	// Transaction state: the undo log every group shares, and the groups
	// first touched this transaction (they log to it), in touch order.
	// Group deletion is deferred to commit — an empty group expands to
	// nothing, so keeping it in the table until the transaction resolves
	// changes no arithmetic, and Abort can restore its members in place.
	logging bool
	log     undoLog[T]
	touched []touchedGroup[K, stateMap[T]]

	// size is the number of records indexed across all groups
	// (StateSize); sizeAtBegin is its value at TxnBegin.
	size, sizeAtBegin int
}

// Txn applies a transaction event to every group touched since Begin.
// Work is O(touched groups), not O(all groups): groups are opened lazily
// as Apply touches keys.
func (n *GroupByNode[T, K, R]) Txn(op TxnOp) {
	n.logging = op == TxnBegin
	switch op {
	case TxnBegin:
		n.sizeAtBegin = n.size
	case TxnCommit:
		n.log.commit()
		for _, t := range n.touched {
			t.g.endLog()
			if t.g.len() == 0 {
				n.drop(t.k, t.g)
			}
		}
		n.touched = n.touched[:0]
	case TxnAbort:
		n.size = n.sizeAtBegin
		n.log.abort()
		for _, t := range n.touched {
			t.g.endLog()
			if t.created {
				n.drop(t.k, t.g)
			}
		}
		n.touched = n.touched[:0]
	}
}

// drop moves k's emptied group from the table to the freelist.
//
//wpinq:txn-exempt runs only outside a transaction or from Txn once the group's log is resolved; a group dropped while open would be written by abort after the pool reissued it
func (n *GroupByNode[T, K, R]) drop(k K, g *stateMap[T]) {
	n.groups.remove(k)
	g.recycle()
	n.pool.put(g)
}

// GroupBy incrementally groups records by key and re-reduces weight-ordered
// prefixes. When a difference arrives, only the affected keys' outputs are
// re-derived: the old prefix outputs are retracted and the new ones
// asserted (their overlap cancels, so unchanged prefixes emit nothing).
// Output differences go to out. reduce must neither modify nor retain its
// argument: for a group already in weight order it is a window on the
// node's live records (see weighted.ReducePrefixes).
func GroupBy[T comparable, K comparable, R comparable](
	key func(T) K, reduce func([]T) R, out Handler[weighted.Grouped[K, R]],
) *GroupByNode[T, K, R] {
	return &GroupByNode[T, K, R]{
		emit:   out,
		key:    key,
		reduce: reduce,
	}
}

// Apply applies a batch of input differences.
func (n *GroupByNode[T, K, R]) Apply(batch []Delta[T]) {
	diff := &n.diff
	inTxn := n.logging
	keys := n.byKey.group(batch, n.key)
	if !inTxn {
		// A group of equal weights — every group of a load — reduces to
		// one prefix: one retracted and one asserted per key.
		diff.reserve(2 * len(keys))
		n.groups.reserve(n.groups.len() + len(keys))
	}
	for i, e := range keys {
		k := e.Record
		group := n.groups.get(k)
		// Retract old outputs.
		n.expand(k, group, func(g weighted.Grouped[K, R], w float64) { diff.add(g, -w) })
		// Apply the differences.
		created := group == nil
		if created {
			group = n.pool.get()
			n.groups.put(k, group)
		}
		if n.logging && group.log == nil {
			group.beginLog(&n.log)
			n.touched = append(n.touched, touchedGroup[K, stateMap[T]]{k: k, g: group, created: created})
		}
		before := group.len()
		for _, d := range n.byKey.run(i) {
			group.apply(d.Record, d.Weight)
		}
		n.size += group.len() - before
		if group.len() == 0 && !inTxn {
			// Deletion is deferred to commit inside a transaction so
			// Abort can restore the group in place.
			n.drop(k, group)
			group = nil
		}
		// Assert new outputs.
		n.expand(k, group, func(g weighted.Grouped[K, R], w float64) { diff.add(g, w) })
	}
	n.byKey.reset(inTxn)
	n.emit.send(diff.takeBatch(inTxn))
}

// StateSize returns the number of records indexed across all groups.
func (n *GroupByNode[T, K, R]) StateSize() int { return n.size }

// expand emits group k's prefix outputs. A group whose weights already
// run in weight order — every group of unit-weight records, so every
// vertex group of degrees() — expands over its own slices: no copy, no
// sort, and reduce sees a window on the live records. Any other group is
// copied, filtered and stable-sorted first.
//
//wpinq:txn-exempt writes only the expansion scratch (members, recs, ws), never group state
func (n *GroupByNode[T, K, R]) expand(k K, group *stateMap[T], emit func(weighted.Grouped[K, R], float64)) {
	if group == nil || group.len() == 0 {
		return
	}
	if weighted.InWeightOrder(group.ws) {
		weighted.ReducePrefixes(k, group.recs, group.ws, n.reduce, emit)
		return
	}
	members := n.members[:0]
	group.each(func(x T, w float64) {
		members = append(members, weighted.Pair[T]{Record: x, Weight: w})
	})
	n.members = members
	n.recs, n.ws = weighted.PrefixReduce(k, members, n.reduce, emit, n.recs, n.ws)
}

// ShaveNode is the body of Shave.
type ShaveNode[T comparable] struct {
	emit  Handler[weighted.Indexed[T]]
	state stateMap[T]
	f     func(x T, i int) float64
	log   undoLog[T]

	logging bool // see IntersectNode

	// Per-push scratch, reused across pushes (see GroupByNode). pending
	// consolidates a batch per record before expansion: an unconsolidated
	// batch (a bulk load delivers one delta per edge, so a source vertex
	// of degree d arrives d times) must cost one retract/re-expand per
	// distinct record, not one per delta — a record at weight W expands
	// to O(W) slices, so per-delta expansion is quadratic in W while
	// per-record expansion is linear.
	pending scratchIndex[T] // each distinct record of the batch and its summed delta
	diff    orderedDiff[weighted.Indexed[T]]
}

// Txn applies a transaction event to the record index (see
// IntersectNode.Txn).
func (n *ShaveNode[T]) Txn(op TxnOp) {
	n.logging = op == TxnBegin
	switch op {
	case TxnBegin:
		n.state.beginLog(&n.log)
	case TxnCommit:
		n.log.commit()
		n.state.endLog()
	case TxnAbort:
		n.log.abort()
		n.state.endLog()
	}
}

// Shave incrementally decomposes records into indexed slices following the
// weight sequence f. A difference on a record re-derives only that record's
// slices; interior slices cancel, so in the common constant-sequence case
// only the boundary slices emit differences. Output differences go to out.
func Shave[T comparable](f func(x T, i int) float64, out Handler[weighted.Indexed[T]]) *ShaveNode[T] {
	return &ShaveNode[T]{f: f, emit: out}
}

// StateSize returns the number of records indexed by the node.
func (n *ShaveNode[T]) StateSize() int { return n.state.len() }

// Apply applies a batch of input differences.
//
//wpinq:txn-exempt pending is per-push scratch; the record index is written through stateMap.apply, which logs
func (n *ShaveNode[T]) Apply(batch []Delta[T]) {
	// Consolidate per record in first-appearance order, then expand each
	// distinct record exactly once.
	for _, d := range batch {
		i, _ := n.pending.slot(d.Record)
		n.pending.ents[i].Weight += d.Weight
	}
	diff := &n.diff
	inTxn := n.logging
	if !inTxn {
		// A load's unit differences shave into one slice each.
		diff.reserve(len(batch))
	}
	for _, p := range n.pending.ents {
		x := p.Record
		oldW, newW := n.state.apply(x, p.Weight)
		if oldW == newW {
			continue
		}
		weighted.ShaveExpand(x, oldW, n.f, func(i int, wi float64) {
			diff.add(weighted.Indexed[T]{Value: x, Index: i}, -wi)
		})
		weighted.ShaveExpand(x, newW, n.f, func(i int, wi float64) {
			diff.add(weighted.Indexed[T]{Value: x, Index: i}, wi)
		})
	}
	n.pending.reset(inTxn)
	n.emit.send(diff.takeBatch(inTxn))
}
