// Package incremental holds the operator bodies of wPINQ's incremental
// query evaluation (paper Section 4.3 and Appendix B): the stateful
// difference-translating operators, the scoring sinks, and the
// transaction machinery they share.
//
// A query is a dataflow graph whose edges carry batches of weighted
// differences (Delta values). Each stateful operator maintains whatever
// indexed state it needs to translate input differences into output
// differences, so re-evaluating a query after a small change (one MCMC
// step) costs only the propagation of the change, not a from-scratch
// evaluation. Every operator implements exactly the semantics of the
// corresponding reference transformation in wpinq/internal/weighted; the
// equivalence is enforced by property tests that drive both with random
// update sequences.
//
// The graph itself — inputs, stateless operators, ports, scheduling —
// is wpinq/internal/engine's. An operator body here is a plain
// single-threaded state machine: built with its parameters and the one
// Handler its output goes to, it is told Apply (ApplyLeft, ApplyRight)
// for a batch of input differences and Txn for a transaction event, and
// hands what changes to that handler before the call returns. The engine
// keeps one body per stateful operator and is the only caller outside
// this package's tests. Its streams are Sources in this
// package's sense, so the sinks below terminate its pipelines.
//
// Pushes may be transactional: TxnBegin marks subsequent pushes
// speculative (stateful nodes log pre-images of overwritten state), and
// TxnCommit/TxnAbort resolve them — Abort restoring bit-identical state
// in O(touched keys) without a second propagation. See txn.go.
package incremental

import (
	"math"
	"slices"

	"wpinq/internal/weighted"
)

// Delta is one weighted difference: Record's weight changes by Weight.
type Delta[T comparable] struct {
	Record T
	Weight float64
}

// Handler consumes a batch of differences. The batch slice is owned by the
// emitter: handlers must not retain or mutate it.
type Handler[T comparable] func(batch []Delta[T])

// send hands a batch to h; empty batches are dropped.
func (h Handler[T]) send(batch []Delta[T]) {
	if len(batch) > 0 {
		h(batch)
	}
}

// Source is a stream a sink can terminate: it delivers difference batches
// to subscribed handlers, and tells subscribed transaction handlers each
// transaction event once. Every stream of wpinq/internal/engine is one.
// Subscriptions must complete before the first push.
type Source[T comparable] interface {
	Subscribe(h Handler[T])
	SubscribeTxn(f func(TxnOp))
}

// Collector is a sink that materializes the current state of a stream as a
// weighted dataset. Used by tests and by callers that need full outputs.
type Collector[T comparable] struct {
	data *weighted.Dataset[T]

	logging bool // between TxnBegin and TxnCommit/TxnAbort
	undo    collectorUndo[T]
}

// Collect attaches a new Collector to src.
func Collect[T comparable](src Source[T]) *Collector[T] {
	c := &Collector[T]{data: weighted.New[T]()}
	src.Subscribe(func(batch []Delta[T]) {
		for _, d := range batch {
			if c.logging {
				c.undo.observe(d.Record, c.data)
			}
			c.data.Add(d.Record, d.Weight)
		}
	})
	src.SubscribeTxn(c.onTxn)
	return c
}

func (c *Collector[T]) onTxn(op TxnOp) {
	c.logging = op == TxnBegin
	switch op {
	case TxnAbort:
		c.undo.abort(c.data)
	case TxnCommit:
		c.undo.reset()
	}
}

// Snapshot returns a copy of the collector's current dataset.
func (c *Collector[T]) Snapshot() *weighted.Dataset[T] {
	return c.data.Clone()
}

// Weight returns the current accumulated weight of record x.
func (c *Collector[T]) Weight(x T) float64 { return c.data.Weight(x) }

// Norm returns the current ||Q(A)|| of the collected stream.
func (c *Collector[T]) Norm() float64 { return c.data.Norm() }

// stateMap is the shared mutable-state helper used by stateful operators:
// a record-weight index with Eps cleanup matching weighted.Dataset, plus an
// incrementally maintained norm.
//
// Records are held in a slice with a position index (a state table, see
// table.go), not in the table alone, so that each (deletions backfill
// from the tail) visits records in an order that is a pure function of
// the update history — never of the table's slot order, which follows
// hashSeed. Operators that expand or rescale whole groups
// therefore emit deterministically, which is what makes a seeded MCMC
// trace bit-reproducible: the sinks' floating-point score accumulation
// sees the same operand order on every identically-seeded run.
type stateMap[T comparable] struct {
	// pos maps each record to its index in recs, plus one. It is nil
	// until the map grows past posThreshold records; below that,
	// lookups linear-scan recs. Most groups are keyed by a vertex and
	// hold O(degree) records — or are join-key singletons — so the
	// common case never allocates the table at all, and a group keeps
	// its first record on the cache lines a pointer leaves free. Once
	// built, pos is maintained forever (inserts, deletes, abort replay),
	// so a lookup path switch can never observe a stale index.
	pos  *table[T, int]
	recs []T
	ws   []float64
	norm float64

	// log is the owning node's undo log while a transaction has this map
	// open, nil otherwise (see txn.go): apply appends the pre-image of
	// every mutation to it, so the node's abort can restore the exact
	// prior state — including slice order — last-in-first-out.
	log *undoLog[T]

	// The first record is stored in the map itself: recs and ws start out
	// as slices of these one-element arrays. Most key groups of a
	// path-keyed join hold exactly one record for life, so the common
	// group costs no allocation beyond itself and a key update reads the
	// record from the cache line it found the group on. A stateMap must
	// therefore never be copied once it holds a record.
	rec0 [1]T
	w0   [1]float64
}

// posThreshold is the record count past which a stateMap builds its
// position index. Below it a lookup scans recs — at most posThreshold
// comparisons against (typically packed-integer) records, cheaper than
// one table probe plus the table's allocation.
const posThreshold = 16

// index locates record x, via pos when built, else by scanning recs.
func (m *stateMap[T]) index(x T) (int, bool) {
	if m.pos != nil {
		i := m.pos.get(x) - 1
		return i, i >= 0
	}
	for i, r := range m.recs {
		if r == x {
			return i, true
		}
	}
	return 0, false
}

// apply adds delta to record x and returns (old, new) weights. Weights with
// magnitude below weighted.Eps collapse to exactly zero, keeping the state
// identical to the reference engine's.
func (m *stateMap[T]) apply(x T, delta float64) (oldW, newW float64) {
	i, ok := m.index(x)
	if ok {
		oldW = m.ws[i]
	}
	newW = oldW + delta
	switch {
	case math.Abs(newW) < weighted.Eps:
		newW = 0
		if ok {
			if m.log != nil {
				m.log.entries = append(m.log.entries, stateUndo[T]{m: m, kind: undoDelete, i: i, x: x, oldW: oldW, oldNorm: m.norm})
			}
			last := len(m.recs) - 1
			moved := m.recs[last]
			m.recs[i], m.ws[i] = moved, m.ws[last]
			m.recs = m.recs[:last]
			m.ws = m.ws[:last]
			if m.pos != nil {
				m.pos.put(moved, i+1)
				m.pos.remove(x) // after moved's put: moved may be x itself
			}
		}
	case ok:
		if m.log != nil {
			m.log.entries = append(m.log.entries, stateUndo[T]{m: m, kind: undoUpdate, i: i, oldW: oldW, oldNorm: m.norm})
		}
		m.ws[i] = newW
	default:
		if m.log != nil {
			m.log.entries = append(m.log.entries, stateUndo[T]{m: m, kind: undoInsert, oldNorm: m.norm})
		}
		if m.pos != nil {
			m.pos.put(x, len(m.recs)+1)
		}
		if m.recs == nil {
			m.recs, m.ws = m.rec0[:0], m.w0[:0]
		}
		m.recs = append(m.recs, x)
		m.ws = append(m.ws, newW)
		if m.pos == nil && len(m.recs) > posThreshold {
			m.pos = new(table[T, int])
			m.pos.reserve(2 * posThreshold)
			for j, r := range m.recs {
				m.pos.put(r, j+1)
			}
		}
	}
	m.norm += math.Abs(newW) - math.Abs(oldW)
	return oldW, newW
}

// recycle resets an emptied state map to its freshly-constructed state
// while keeping allocated capacity: a group leaving a keyed operator's
// map for the freelist, or one side of a join group that drained while
// its partner stayed. Only empty maps are recycled (pos, when built, has
// no entries once recs is empty), which makes a recycled map
// indistinguishable from a new one except for spare capacity — a
// kept-but-empty pos only changes lookup strategy, never results: norm
// is forced to exactly zero because a drained group can carry ±1e-17 of
// float dust, and a fresh map's norm is bit-exact 0 — trace bit-identity
// requires the zeroing, not just "small".
func (m *stateMap[T]) recycle() {
	m.recs = m.recs[:0]
	m.ws = m.ws[:0]
	m.norm = 0
	m.log = nil
}

// grow makes room for n more records without another allocation.
//
//wpinq:txn-exempt called only for a push outside a transaction (side.expect, GroupByNode.Apply), and moves no record: abort replays indices, not capacity
func (m *stateMap[T]) grow(n int) {
	m.recs = slices.Grow(m.recs, n)
	m.ws = slices.Grow(m.ws, n)
}

func (m *stateMap[T]) weight(x T) float64 {
	if i, ok := m.index(x); ok {
		return m.ws[i]
	}
	return 0
}

// len returns the number of records with non-zero weight.
func (m *stateMap[T]) len() int { return len(m.recs) }

// each visits every record in the deterministic slice order. f must not
// mutate the state map.
func (m *stateMap[T]) each(f func(x T, w float64)) {
	for i, x := range m.recs {
		f(x, m.ws[i])
	}
}

// orderedDiff is the reusable difference accumulator of the stateful
// operators' batched-update scratch. It mirrors weighted.Dataset's Eps
// cleanup — a record whose running sum collapses below Eps is zeroed
// exactly, and zero records are skipped at flush — but unlike a
// map-backed dataset it flushes in insertion order, so a node's emitted
// batch order is a deterministic function of its input, never of map
// iteration order (see stateMap). It is a scratchIndex whose floats are
// the running sums — ents[i] is the i-th distinct record and its sum —
// so the accumulator is the batch it emits.
type orderedDiff[T comparable] struct {
	scratchIndex[T]

	// direct is set, until takeBatch, by reserveDistinct: add appends.
	direct bool
	// chunks, if set with direct, takes the entries each time loadChunk
	// of them have been added.
	chunks Handler[T]
}

// reserveDistinct readies an empty accumulator for a push that adds n
// records no two of which are equal: only the entry array, at that size,
// and no table, for add appends to it without looking anything up. The
// batch is the one the accumulator would emit: with every record
// distinct, first-appearance order is the order they are added in, and
// each sum is 0 + w = w, collapsed below weighted.Eps as add collapses it.
// With chunks, the array holds loadChunk records at most: add hands each
// full one to chunks before it starts the next, and takeBatch returns
// the rest, so the push emits the same records in the same order.
func (d *orderedDiff[T]) reserveDistinct(n int, chunks Handler[T]) {
	if chunks != nil {
		n = min(n, loadChunk)
	}
	refuseSlots(n)
	d.ents = slices.Grow(d.ents, n)
	d.direct, d.chunks = true, chunks
}

// add accumulates w onto record x (a first appearance starts from the
// fresh entry's zero).
func (d *orderedDiff[T]) add(x T, w float64) {
	if d.direct {
		if math.Abs(w) < weighted.Eps {
			return
		}
		if d.chunks != nil && len(d.ents) == loadChunk {
			d.chunks(d.ents)
			d.ents = d.ents[:0]
		}
		d.ents = append(d.ents, Delta[T]{x, w})
		return
	}
	i, _ := d.slot(x)
	e := &d.ents[i]
	w += e.Weight
	if math.Abs(w) < weighted.Eps {
		w = 0
	}
	e.Weight = w
}

// takeBatch returns the non-zero accumulated differences, in insertion
// order, for immediate emission, and empties the accumulator. The zeros
// are squeezed out in place and the returned slice is the accumulator's
// own entry array, valid until the next add: handlers must not retain
// emitted batches (the Handler contract), and emission is synchronous,
// so lending it out costs no copy and no allocation. When Recycle
// releases the array — a load's, past scratchRetain — the emitted batch
// is its only reference, and its one receiver may keep it.
func (d *orderedDiff[T]) takeBatch(keep bool) []Delta[T] {
	out := d.ents
	if !d.direct { // a direct add appends no zeros
		out = d.ents[:0]
		for _, e := range d.ents {
			if e.Weight != 0 {
				out = append(out, e)
			}
		}
	}
	d.ents, d.direct, d.chunks = out, false, nil
	d.reset(keep)
	return out
}
