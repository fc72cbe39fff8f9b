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

// MinMaxNode is the body of Union or Intersect: an element-wise max/min
// with both inputs' current weights indexed.
type MinMaxNode[T comparable] struct {
	pick  func(x, y float64) float64
	emit  Handler[T]
	left  stateMap[T]
	right stateMap[T]
	log   undoLog[T] // both indexes log here
	// logging is set between TxnBegin and TxnCommit/TxnAbort: pushes are
	// speculative. The engine tells each event once, so a flag is all a
	// body keeps.
	logging bool

	// Output batch, reused across pushes — the same array, unless Recycle
	// releases it: handlers must not retain emitted batches and emission
	// is synchronous.
	out []Delta[T]
}

// Txn applies a transaction event to both input indexes. The indexes are
// fixed (not keyed), so Begin opens them eagerly — two pointer stores,
// not a state walk.
func (n *MinMaxNode[T]) Txn(op TxnOp) {
	n.logging = op == TxnBegin
	switch op {
	case TxnBegin:
		n.left.beginLog(&n.log)
		n.right.beginLog(&n.log)
		return
	case TxnCommit:
		n.log.commit()
	case TxnAbort:
		n.log.abort()
	}
	n.left.endLog()
	n.right.endLog()
}

// Union incrementally computes the element-wise maximum of two streams,
// handing its output differences to out. It maintains both inputs'
// current weights; a difference on either side changes the output only
// when it moves the maximum.
func Union[T comparable](out Handler[T]) *MinMaxNode[T] {
	return &MinMaxNode[T]{pick: math.Max, emit: out}
}

// Intersect incrementally computes the element-wise minimum of two streams.
func Intersect[T comparable](out Handler[T]) *MinMaxNode[T] {
	return &MinMaxNode[T]{pick: math.Min, emit: out}
}

// StateSize returns the number of records indexed across both inputs: the
// node's memory footprint in records (paper Section 4.3 observes this
// grows with the number of length-two paths for the triangle queries).
func (n *MinMaxNode[T]) StateSize() int { return n.left.len() + n.right.len() }

// ApplyLeft applies a batch of the left input's differences.
func (n *MinMaxNode[T]) ApplyLeft(batch []Delta[T]) { n.apply(batch, &n.left, &n.right) }

// ApplyRight applies a batch of the right input's differences.
func (n *MinMaxNode[T]) ApplyRight(batch []Delta[T]) { n.apply(batch, &n.right, &n.left) }

//wpinq:txn-exempt out is per-push scratch; the indexes are written through stateMap.apply, which logs
func (n *MinMaxNode[T]) apply(batch []Delta[T], own, other *stateMap[T]) {
	out := slices.Grow(n.out, len(batch))
	for _, d := range batch {
		oldW, newW := own.apply(d.Record, d.Weight)
		ow := other.weight(d.Record)
		diff := n.pick(newW, ow) - n.pick(oldW, ow)
		if math.Abs(diff) >= weighted.Eps {
			out = append(out, Delta[T]{d.Record, diff})
		}
	}
	n.emit.send(out)
	n.out = Recycle(out, n.logging)
}

// GroupByNode is the body of GroupBy.
type GroupByNode[T comparable, K comparable, R comparable] struct {
	emit   Handler[weighted.Grouped[K, R]]
	groups map[K]*stateMap[T]
	key    func(T) K
	reduce func([]T) R

	// Freelist of dropped groups; see groupPool.
	pool groupPool[stateMap[T]]

	// Per-push scratch (see scratch.go), reused across pushes so hot
	// loops do not re-allocate a grouping and a difference accumulator
	// per batch. Safe because emitted batches are owned by this node and
	// handlers must not retain them. Keys are processed — and
	// differences emitted — in first-appearance order (see stateMap).
	byKey         keyGrouper[K, T]
	members       []weighted.Pair[T]
	prefixScratch []T
	diff          orderedDiff[weighted.Grouped[K, R]]

	// Transaction state: the undo log every group shares, and the groups
	// first touched this transaction (they log to it), in touch order.
	// Group deletion is deferred to commit — an empty group expands to
	// nothing, so keeping it in the map until the transaction resolves
	// changes no arithmetic, and Abort can restore its members in place.
	logging bool
	log     undoLog[T]
	touched []touchedGroup[K, stateMap[T]]
}

// Txn applies a transaction event to every group touched since Begin.
// Work is O(touched groups), not O(all groups): groups are opened lazily
// as Apply touches keys.
func (n *GroupByNode[T, K, R]) Txn(op TxnOp) {
	n.logging = op == TxnBegin
	switch op {
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

// drop moves k's emptied group from the map to the freelist.
//
//wpinq:txn-exempt runs only outside a transaction or from Txn once the group's log is resolved; a group dropped while open would be written by abort after the pool reissued it
func (n *GroupByNode[T, K, R]) drop(k K, g *stateMap[T]) {
	delete(n.groups, k)
	g.recycle()
	n.pool.put(g)
}

// GroupBy incrementally groups records by key and re-reduces weight-ordered
// prefixes. When a difference arrives, only the affected keys' outputs are
// re-derived: the old prefix outputs are retracted and the new ones
// asserted (their overlap cancels, so unchanged prefixes emit nothing).
// Output differences go to out.
func GroupBy[T comparable, K comparable, R comparable](
	key func(T) K, reduce func([]T) R, out Handler[weighted.Grouped[K, R]],
) *GroupByNode[T, K, R] {
	return &GroupByNode[T, K, R]{
		emit:   out,
		groups: make(map[K]*stateMap[T]),
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
	}
	for i, e := range keys {
		k := e.Record
		group := n.groups[k]
		// Retract old outputs.
		n.expand(k, group, func(g weighted.Grouped[K, R], w float64) { diff.add(g, -w) })
		// Apply the differences.
		created := group == nil
		if created {
			group = n.pool.get()
			n.groups[k] = group
		}
		if n.logging && group.log == nil {
			group.beginLog(&n.log)
			n.touched = append(n.touched, touchedGroup[K, stateMap[T]]{k: k, g: group, created: created})
		}
		for _, d := range n.byKey.run(i) {
			group.apply(d.Record, d.Weight)
		}
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
func (n *GroupByNode[T, K, R]) StateSize() int {
	total := 0
	//wpinq:nondeterministic-ok integer sum over group sizes is order-independent; diagnostics only
	for _, g := range n.groups {
		total += g.len()
	}
	return total
}

//wpinq:txn-exempt writes only the expansion scratch (members, prefixScratch), never group state
func (n *GroupByNode[T, K, R]) expand(k K, group *stateMap[T], emit func(weighted.Grouped[K, R], float64)) {
	if group == nil || group.len() == 0 {
		return
	}
	members := n.members[:0]
	group.each(func(x T, w float64) {
		members = append(members, weighted.Pair[T]{Record: x, Weight: w})
	})
	n.members = members
	n.prefixScratch = weighted.PrefixReduceInto(k, members, n.reduce, emit, n.prefixScratch)
}

// ShaveNode is the body of Shave.
type ShaveNode[T comparable] struct {
	emit  Handler[weighted.Indexed[T]]
	state stateMap[T]
	f     func(x T, i int) float64
	log   undoLog[T]

	logging bool // see MinMaxNode

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
// MinMaxNode.Txn).
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
