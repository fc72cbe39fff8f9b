// Package txnfix exercises the txnundo analyzer: methods on
// undo-logged structs must maintain the log when writing replayed
// state.
package txnfix

type record struct{ w float64 }

// logged mimics stateMap: an undo field marks the struct as
// participating in abort replay.
type logged struct {
	recs    map[string]record
	total   float64
	logging bool
	undo    []record
}

// set logs a pre-image before writing: allowed.
func (m *logged) set(k string, r record) {
	if m.logging {
		m.undo = append(m.undo, m.recs[k])
	}
	m.recs[k] = r
}

// bump writes replayed state without touching the log: flagged.
func (m *logged) bump(k string, w float64) {
	rec := m.recs[k]
	rec.w += w
	m.recs[k] = rec // want `without consulting the undo log`
}

// drop deletes from a replayed map without logging: flagged.
func (m *logged) drop(k string) {
	delete(m.recs, k) // want `without consulting the undo log`
}

// grow increments a replayed counter without logging: flagged.
func (m *logged) grow() {
	m.total++ // want `without consulting the undo log`
}

// reset is declared outside transaction scope and carries the reasoned
// declaration directive.
//
//wpinq:txn-exempt fixture reset runs only between transactions, when no undo frame is open
func (m *logged) reset() {
	m.total = 0
	m.recs = map[string]record{}
}

// plain has no undo field: its methods are out of scope.
type plain struct {
	recs map[string]record
}

func (p *plain) set(k string, r record) {
	p.recs[k] = r
}

// undoLog mimics the node-level log: one append-only log shared by
// every map its owner opens in a transaction.
type undoLog struct {
	entries []record
}

// shared mimics stateMap after the log moved to the node: it holds no
// log of its own, only a pointer to its owner's while a transaction has
// it open. The pointer marks it as participating in abort replay.
type shared struct {
	recs  map[string]record
	total float64
	log   *undoLog
}

// set logs a pre-image through the owner's log before writing: allowed.
func (m *shared) set(k string, r record) {
	if m.log != nil {
		m.log.entries = append(m.log.entries, m.recs[k])
	}
	m.recs[k] = r
}

// begin and end only move the log pointer, which is the machinery
// itself: allowed.
func (m *shared) begin(l *undoLog) { m.log = l }
func (m *shared) end()             { m.log = nil }

// bump writes replayed state without consulting the owner's log:
// flagged, exactly as it was when the log lived in the struct.
func (m *shared) bump(w float64) {
	m.total += w // want `without consulting the undo log`
}

// evict deletes from a replayed map without logging: flagged.
func (m *shared) evict(k string) {
	delete(m.recs, k) // want `without consulting the undo log`
}

// owner mimics an operator node: it holds the log by value and opens
// its groups in it. Its group map is replayed (abort removes the groups
// the transaction created), so writes to it must consult the log too.
type owner struct {
	groups  map[string]*shared
	log     undoLog
	touched []*shared
}

// open creates a group and opens it in the owner's log: allowed.
func (o *owner) open(k string) *shared {
	g := &shared{}
	o.groups[k] = g
	g.begin(&o.log)
	o.touched = append(o.touched, g)
	return g
}

// commit resets the log and the touched list, both machinery: allowed.
func (o *owner) commit() {
	o.log.entries = o.log.entries[:0]
	o.touched = o.touched[:0]
}

// forget removes a group without consulting the log: flagged.
func (o *owner) forget(k string) {
	delete(o.groups, k) // want `without consulting the undo log`
}

// retire does the same under the reasoned declaration directive.
//
//wpinq:txn-exempt fixture retire runs only after the transaction resolved
func (o *owner) retire(k string) {
	delete(o.groups, k)
}

// unlogged has neither an undo field nor an undoLog: out of scope, even
// though a field is called log.
type unlogged struct {
	recs map[string]record
	log  []string
}

func (u *unlogged) set(k string, r record) {
	u.recs[k] = r
	u.log = append(u.log, k)
}
