package incremental

import "wpinq/internal/weighted"

// Transactional propagation: the propose -> score -> commit/abort
// protocol MCMC uses to stop paying a second full propagation for every
// rejected proposal.
//
// A transaction brackets one or more speculative pushes. Between
// TxnBegin and TxnCommit/TxnAbort, every stateful operator and sink
// buffers the pre-image of each piece of state it overwrites — a
// (record, old weight) undo entry per first touch, in mutation order —
// instead of forgetting it. Commit discards the logs (the speculative
// propagation is already the truth); Abort replays them last-in-first-out,
// restoring bit-identical state in O(touched keys) without pushing the
// inverse differences back through the graph.
//
// Control events travel the engine's dataflow edges like difference
// batches: a node there receives Begin/Commit/Abort from each upstream,
// deduplicates redundant deliveries (diamond topologies deliver an event
// once per incoming edge) with a TxnGate, tells its operator body
// (Txn) — which applies the event to its own state and forwards it
// to nobody — and passes it on downstream, where the sinks subscribe to
// it (Source.SubscribeTxn). The propagation is synchronous and carries no
// data, so its cost is one virtual call per graph edge.
//
// Two invariants make Abort trace-faithful (see DESIGN.md "Transactional
// scoring"):
//
//   - Speculative propagation performs bit-identical arithmetic to an
//     ordinary push: undo logging only observes writes, it never changes
//     them, so an accepted (committed) proposal leaves exactly the state
//     an untracked push would have.
//   - Abort restores the exact pre-image bytes of every touched key —
//     stateMap slice order included, because future emission order (and
//     with it every downstream float accumulation) depends on it — and
//     the sinks are no exception: a noisy-count observation derived for
//     a record the transaction first gave weight is dropped with it,
//     because the score is a function of the current weights alone and
//     the observation can be derived again (see NoisyCountSink).
type TxnOp uint8

const (
	// TxnBegin starts a transaction: stateful nodes begin logging
	// pre-images of the state they overwrite.
	TxnBegin TxnOp = iota
	// TxnCommit keeps the speculative propagation and discards the logs.
	TxnCommit
	// TxnAbort restores every touched key's pre-image from the logs.
	TxnAbort
)

// TxnGate deduplicates transaction events for nodes with multiple paths
// from the root (diamond topologies, binary operators on overlapping
// subgraphs): the first delivery of Begin opens the gate, the first
// delivery of Commit/Abort closes it, and every redundant delivery is
// dropped so events cannot multiply along parallel paths. The engine's
// nodes and the sinks keep one each; the operator bodies, told each event
// once by the node that owns them, need none.
type TxnGate struct {
	in bool
}

// Enter reports whether the event should be processed and forwarded.
func (g *TxnGate) Enter(op TxnOp) bool {
	if op == TxnBegin {
		if g.in {
			return false
		}
		g.in = true
		return true
	}
	if !g.in {
		return false
	}
	g.in = false
	return true
}

// Active reports whether a transaction is open at this node.
func (g *TxnGate) Active() bool { return g.in }

// stateUndoKind tags one stateMap undo-log entry.
type stateUndoKind uint8

const (
	undoUpdate stateUndoKind = iota // weight overwritten in place
	undoInsert                      // record appended
	undoDelete                      // record swap-deleted
)

// stateUndo is one logged stateMap mutation: the map it happened to and
// enough to restore the exact pre-image — weights, slice order, position
// index, and norm — when replayed last-in-first-out.
type stateUndo[T comparable] struct {
	m       *stateMap[T]
	kind    stateUndoKind
	i       int     // slot the mutation touched (update, delete)
	x       T       // deleted record (delete only)
	oldW    float64 // pre-image weight (update, delete)
	oldNorm float64 // pre-image norm
}

// undoLog is one node's transaction log for its stateMaps of record type
// T: every map the transaction has touched appends to the same log, in
// mutation order. Opening a map (beginLog) is a pointer store, so a
// proposal that lands on groups no transaction touched before allocates
// nothing; the one slice grows to the largest transaction the node has
// seen. Replaying the whole log last-in-first-out restores each map
// exactly as a private per-map log would, because maps share no state:
// entries of different maps commute, and each map's own entries are
// still undone newest first.
type undoLog[T comparable] struct {
	entries []stateUndo[T]
}

// beginLog opens m in l's transaction: until endLog, every mutation of m
// logs its pre-image to l.
func (m *stateMap[T]) beginLog(l *undoLog[T]) { m.log = l }

// endLog closes m once its transaction has committed or aborted.
func (m *stateMap[T]) endLog() { m.log = nil }

// commit discards the log: the speculative mutations are the truth.
func (l *undoLog[T]) commit() { l.entries = l.entries[:0] }

// abort replays the log last-in-first-out, restoring every logged map's
// exact pre-transaction state: every weight, the record slice order (so
// future emission order is unchanged), the position index, and the norm.
func (l *undoLog[T]) abort() {
	for k := len(l.entries) - 1; k >= 0; k-- {
		u := &l.entries[k]
		m := u.m
		switch u.kind {
		case undoUpdate:
			m.ws[u.i] = u.oldW
		case undoInsert:
			last := len(m.recs) - 1
			if m.pos != nil {
				delete(m.pos, m.recs[last])
			}
			m.recs = m.recs[:last]
			m.ws = m.ws[:last]
		case undoDelete:
			// Invert the swap-delete: the record that was moved into slot
			// u.i goes back to the tail, and u.x returns to u.i. When u.x
			// was the tail itself there is no moved record.
			last := len(m.recs)
			if u.i == last {
				m.recs = append(m.recs, u.x)
				m.ws = append(m.ws, u.oldW)
			} else {
				moved := m.recs[u.i]
				m.recs = append(m.recs, moved)
				m.ws = append(m.ws, m.ws[u.i])
				if m.pos != nil {
					m.pos[moved] = last
				}
				m.recs[u.i] = u.x
				m.ws[u.i] = u.oldW
			}
			if m.pos != nil {
				m.pos[u.x] = u.i
			}
		}
		m.norm = u.oldNorm
	}
	l.commit()
}

// touchedGroup records one key group first touched during a transaction,
// for the keyed operators (GroupBy, Join) whose state is a dynamic map of
// groups. created marks groups that did not exist at TxnBegin: Abort
// removes them from the map once the log is unwound.
type touchedGroup[K comparable, G any] struct {
	k       K
	g       *G
	created bool
}

// collectorUndo is the Collector's first-touch undo log: observe records
// a record's pre-transaction weight (0 when absent) once, before the
// collector overwrites it, abort restores the dataset from the log, and
// reset clears the log at commit.
type collectorUndo[T comparable] struct {
	seen map[T]struct{}
	undo []Delta[T]
}

// observe logs x's current weight in d, once per transaction.
func (u *collectorUndo[T]) observe(x T, d *weighted.Dataset[T]) {
	if u.seen == nil {
		u.seen = make(map[T]struct{})
	}
	if _, ok := u.seen[x]; ok {
		return
	}
	u.seen[x] = struct{}{}
	u.undo = append(u.undo, Delta[T]{x, d.Weight(x)})
}

// abort restores every observed record's pre-transaction weight in d
// and clears the log.
func (u *collectorUndo[T]) abort(d *weighted.Dataset[T]) {
	for _, e := range u.undo {
		if e.Weight == 0 {
			d.Remove(e.Record)
		} else {
			d.Set(e.Record, e.Weight)
		}
	}
	u.reset()
}

// reset discards the log, keeping capacity for the next transaction.
func (u *collectorUndo[T]) reset() {
	clear(u.seen)
	u.undo = u.undo[:0]
}
