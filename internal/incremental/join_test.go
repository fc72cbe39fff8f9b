package incremental

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wpinq/internal/weighted"
)

// rec is a join input record for the paired-group tests: k is the join
// key, id tells records of one key apart.
type rec struct{ k, id int }

func recKey(r rec) int { return r.k }

// newRecJoin returns a join body whose emissions go nowhere: these tests
// read its state.
func newRecJoin() *JoinNode[rec, rec, int, [2]rec] {
	return Join(recKey, recKey, func(x, y rec) [2]rec { return [2]rec{x, y} }, func([]Delta[[2]rec]) {})
}

// sidesOf returns views of key k's two sides, and whether the table
// holds k. The views open no log: they are for reading.
func (n *JoinNode[A, B, K, R]) sidesOf(k K) (a side[A], b side[B], ok bool) {
	i, ok := n.index.find(k)
	if !ok {
		return a, b, false
	}
	g := n.group(*n.index.at(i))
	return n.a.side(&g.a, &g.spill[0], false), n.b.side(&g.b, &g.spill[1], false), true
}

// groupOf returns a copy of key k's group, and whether the index holds
// k.
func (n *JoinNode[A, B, K, R]) groupOf(k K) (joinGroup[A, B], bool) {
	if i, ok := n.index.find(k); ok {
		return *n.group(*n.index.at(i)), true
	}
	return joinGroup[A, B]{}, false
}

// openSpills returns how many of the node's spills are open in a
// transaction, and how many are out of their pools.
func (n *JoinNode[A, B, K, R]) openSpills() (open, out int) {
	for _, m := range n.a.spills.maps {
		if m.log != nil {
			open++
		}
	}
	for _, m := range n.b.spills.maps {
		if m.log != nil {
			open++
		}
	}
	return open, len(n.a.spills.maps) - len(n.a.spills.free) + len(n.b.spills.maps) - len(n.b.spills.free)
}

// TestJoinDrainedSideNormIsExactlyZero pins what keeping the two sides
// of a key in one group must not lose. When the sides were separate map
// entries, a side that drained was dropped and re-created fresh, so its
// norm read bit-exact 0 the next time the key's denominator was formed.
// In one group the drained side stays beside its partner — and a
// drained side can carry float dust (0.1 + 0.2 - 0.1 - 0.2 leaves
// 2.8e-17), so it must be reset at the same two points the drop used to
// happen: after the push outside a transaction, at commit inside one.
// The side here has spilled (two records); the reset also returns the
// spill to its pool, which brings the side back inline.
func TestJoinDrainedSideNormIsExactlyZero(t *testing.T) {
	load := func() *JoinNode[rec, rec, int, [2]rec] {
		j := newRecJoin()
		j.ApplyRight([]Delta[rec]{{rec{7, 0}, 1}})
		j.ApplyLeft([]Delta[rec]{{rec{7, 1}, 0.1}})
		j.ApplyLeft([]Delta[rec]{{rec{7, 2}, 0.2}})
		return j
	}

	t.Run("outside a transaction", func(t *testing.T) {
		j := load()
		j.ApplyLeft([]Delta[rec]{{rec{7, 1}, -0.1}})
		j.ApplyLeft([]Delta[rec]{{rec{7, 2}, -0.2}})
		a, b, ok := j.sidesOf(7)
		if !ok || a.len() != 0 || b.len() != 1 {
			t.Fatalf("key 7 held %v, %d left and %d right records; want an empty left side beside the right record", ok, a.len(), b.len())
		}
		if a.norm() != 0 {
			t.Errorf("drained side's norm = %g, want exactly 0", a.norm())
		}
		if _, out := j.openSpills(); a.m != nil || out != 0 {
			t.Errorf("the drained side kept its spill (%d out of the pools)", out)
		}
	})

	t.Run("at commit", func(t *testing.T) {
		j := load()
		j.Txn(TxnBegin)
		j.ApplyLeft([]Delta[rec]{{rec{7, 1}, -0.1}})
		j.ApplyLeft([]Delta[rec]{{rec{7, 2}, -0.2}})
		a, _, _ := j.sidesOf(7)
		if a.len() != 0 || a.norm() == 0 {
			// The dust is what makes this test bite; and it must survive
			// until commit, as it did when the drop was deferred.
			t.Fatalf("open transaction: %d records, norm %g; want 0 records and float dust", a.len(), a.norm())
		}
		j.Txn(TxnCommit)
		a, _, ok := j.sidesOf(7)
		if !ok {
			t.Fatal("commit dropped a group whose right side still holds a record")
		}
		if a.norm() != 0 {
			t.Errorf("drained side's norm = %g after commit, want exactly 0", a.norm())
		}
		if open, out := j.openSpills(); open != 0 || out != 0 {
			t.Errorf("commit left %d spills open and %d out of the pools", open, out)
		}
	})
}

func TestJoinAbortDropsCreatedGroups(t *testing.T) {
	j := newRecJoin()
	j.ApplyLeft([]Delta[rec]{{rec{1, 0}, 1}})
	j.ApplyRight([]Delta[rec]{{rec{1, 1}, 1}})
	before, _ := j.groupOf(1)

	j.Txn(TxnBegin)
	j.ApplyLeft([]Delta[rec]{{rec{2, 0}, 1}, {rec{3, 0}, 2}, {rec{3, 2}, 1}, {rec{1, 2}, 1}})
	j.ApplyRight([]Delta[rec]{{rec{3, 1}, 1}, {rec{4, 1}, 1}})
	if j.index.len() != 4 {
		t.Fatalf("%d groups inside the transaction, want 4", j.index.len())
	}
	if _, out := j.openSpills(); out != 2 {
		t.Fatalf("fixture: %d spills out, want key 1's and key 3's left sides", out)
	}
	j.Txn(TxnAbort)

	if g, _ := j.groupOf(1); j.index.len() != 1 || g != before {
		t.Fatalf("groups after abort: %v, want only key 1 as it was", j.index.toMap())
	}
	// Freed newest first, the next new key takes position 2, as it does
	// on a join that never saw the transaction.
	if !slices.Equal(j.free, []int32{4, 3, 2}) {
		t.Errorf("free positions %v after abort, want [4 3 2]: the 3 the transaction made, freed newest first", j.free)
	}
	for _, i := range j.free {
		if g := *j.group(i); g != (joinGroup[rec, rec]{}) {
			t.Errorf("freed group %d not zero: %+v", i, g)
		}
	}
	if open, out := j.openSpills(); open != 0 || out != 0 {
		t.Errorf("abort left %d spills open and %d out of the pools, want the 2 the transaction made back", open, out)
	}
	for _, m := range j.a.spills.maps {
		if m.len() != 0 || m.norm != 0 || m.log != nil {
			t.Errorf("pooled spill not fresh: %+v", m)
		}
	}
	if len(j.touched) != 0 || len(j.a.log.entries) != 0 || len(j.b.log.entries) != 0 {
		t.Error("abort left transaction state behind")
	}
}

// pairJoin is a join of recs by key into pairs, with its collected
// output, the batch it emitted last, and the reference sides.
type pairJoin struct {
	j    *JoinNode[rec, rec, int, [2]rec]
	out  *weighted.Dataset[[2]rec]
	last []Delta[[2]rec]
	refs [2]*weighted.Dataset[rec]
}

func pair(a, b rec) [2]rec { return [2]rec{a, b} }

func newPairJoin() *pairJoin {
	x := &pairJoin{out: weighted.New[[2]rec](), refs: [2]*weighted.Dataset[rec]{weighted.New[rec](), weighted.New[rec]()}}
	x.j = Join(recKey, recKey, pair, func(b []Delta[[2]rec]) {
		x.last = append(x.last[:0], b...)
		fold(x.out)(b)
	})
	return x
}

// push applies batch to the left side (0) or the right (1), and to its
// reference.
func (x *pairJoin) push(side int, batch []Delta[rec]) {
	x.last = x.last[:0]
	for _, d := range batch {
		x.refs[side].Add(d.Record, d.Weight)
	}
	if side == 0 {
		x.j.ApplyLeft(batch)
	} else {
		x.j.ApplyRight(batch)
	}
}

// TestJoinSideGrowsAndShrinksThroughItsSpill walks one key's left side
// through 0 → 1 → 2 → 1 → 0 records — inline, spilled, a spill holding
// one record, drained — beside a right side holding one, as a load (each
// push outside a transaction), inside a transaction that aborts, and
// inside one that commits. After every push the output matches the
// reference join and StateSize a walk of the groups. After the
// transaction a probe push must emit exactly — records, weights, order —
// what it emits on a twin that took the committed pushes, none at abort,
// outside any transaction.
func TestJoinSideGrowsAndShrinksThroughItsSpill(t *testing.T) {
	steps := [][]Delta[rec]{
		{{rec{1, 0}, 0.1}},  // 0 → 1: inline
		{{rec{1, 1}, 0.2}},  // 1 → 2: spills
		{{rec{1, 0}, -0.1}}, // 2 → 1: the spill holds one
		{{rec{1, 1}, -0.2}}, // 1 → 0: drained
	}
	base := []Delta[rec]{{rec{1, 9}, 1}, {rec{2, 9}, 0.5}}
	probe := []Delta[rec]{{rec{1, 2}, 0.3}, {rec{2, 0}, 1}, {rec{1, 3}, 0.7}}
	for _, mode := range []string{"load", "abort", "commit"} {
		t.Run(mode, func(t *testing.T) {
			x, twin := newPairJoin(), newPairJoin()
			x.push(1, base)
			twin.push(1, base)
			if mode != "load" {
				x.j.Txn(TxnBegin)
			}
			for i, step := range steps {
				x.push(0, step)
				if want := weighted.Join(x.refs[0], x.refs[1], recKey, recKey, pair); !weighted.Equal(x.out, want, eqTol) {
					t.Fatalf("step %d: output %v, want %v", i, x.out, want)
				}
				if got, walked := x.j.StateSize(), x.j.walkSize(); got != walked {
					t.Fatalf("step %d: StateSize %d, a walk counts %d", i, got, walked)
				}
				if mode != "abort" {
					twin.push(0, step)
				}
			}
			switch mode {
			case "abort":
				x.j.Txn(TxnAbort)
			case "commit":
				x.j.Txn(TxnCommit)
			}
			if open, out := x.j.openSpills(); open != 0 || out != 0 {
				t.Errorf("%d spills open and %d out of the pools once key 1's side drained", open, out)
			}
			x.push(0, probe)
			twin.push(0, probe)
			if len(twin.last) == 0 || !slices.Equal(x.last, twin.last) {
				t.Errorf("the probe emitted\n %v\nwant what the twin emits\n %v", x.last, twin.last)
			}
		})
	}
}

// TestJoinSpillSettlesInlineOnlyWhenExact pins when a side that spilled
// comes back inline holding one record: when the spill's norm is that
// record's |w| to the bit, so that the inline side, whose norm is |w|,
// reads the same. Weights 1 and 2 leave norm 3 − 1 = 2, exact; 0.1 and
// 0.2 leave 0.1 + 0.2 − 0.1 = 0.20000000000000004, and the side stays
// spilled. Outside a transaction it settles after the push; inside one,
// at commit.
func TestJoinSpillSettlesInlineOnlyWhenExact(t *testing.T) {
	for _, row := range []struct {
		w0, w1  float64
		settles bool
	}{{1, 2, true}, {0.1, 0.2, false}} {
		for _, txn := range []bool{false, true} {
			j := newRecJoin()
			j.ApplyRight([]Delta[rec]{{rec{1, 9}, 1}})
			if txn {
				j.Txn(TxnBegin)
			}
			j.ApplyLeft([]Delta[rec]{{rec{1, 0}, row.w0}, {rec{1, 1}, row.w1}})
			j.ApplyLeft([]Delta[rec]{{rec{1, 0}, -row.w0}})
			if txn {
				if a, _, _ := j.sidesOf(1); a.m == nil {
					t.Fatalf("w=%v,%v: the side is inline before commit", row.w0, row.w1)
				}
				j.Txn(TxnCommit)
			}
			a, _, _ := j.sidesOf(1)
			if settled := a.m == nil; settled != row.settles {
				t.Errorf("w=%v,%v txn=%v: settled inline %v, want %v", row.w0, row.w1, txn, settled, row.settles)
			}
			if a.len() != 1 || a.weight(rec{1, 1}) != row.w1 || row.settles && a.norm() != math.Abs(row.w1) {
				t.Errorf("w=%v,%v txn=%v: the side holds %d records, weight %v, norm %v", row.w0, row.w1, txn, a.len(), a.weight(rec{1, 1}), a.norm())
			}
		}
	}
}

// mapImage is a deep copy of everything abort must restore in one
// side.
type mapImage struct {
	recs []rec
	ws   []float64
	pos  map[rec]int
	norm float64
}

func imageOf(s side[rec]) mapImage {
	if s.m == nil {
		var im mapImage
		s.each(func(x rec, w float64) { im.recs, im.ws = append(im.recs, x), append(im.ws, w) })
		im.norm = s.norm()
		return im
	}
	m := s.m
	var pos map[rec]int
	if m.pos != nil {
		pos = m.pos.toMap()
	}
	return mapImage{slices.Clone(m.recs), slices.Clone(m.ws), pos, m.norm}
}

func (im mapImage) equal(o mapImage) bool {
	return slices.Equal(im.recs, o.recs) && slices.Equal(im.ws, o.ws) &&
		maps.Equal(im.pos, o.pos) && (im.pos == nil) == (o.pos == nil) && im.norm == o.norm
}

// TestJoinMultiGroupAbortRestoresEverySide drives one transaction across
// five groups and both sides — inserts, in-place updates, swap-deletes
// from the middle and the tail, a drain, a spill made, a group created, a
// sixth group left alone — through the node's two shared logs and its
// touched groups, and requires abort to put back every group's slot as it
// was, and every side's records, weights, slice order, position index
// and norm exactly. The per-map logs this replaces were each replayed on
// their own; one log per side interleaves the groups' entries, which is
// only equivalent because groups share no state.
func TestJoinMultiGroupAbortRestoresEverySide(t *testing.T) {
	j := newRecJoin()
	var load []Delta[rec]
	for id := 0; id < posThreshold+4; id++ { // key 1: large enough to build pos
		load = append(load, Delta[rec]{rec{1, id}, float64(id) + 0.5})
	}
	for id := 0; id < 5; id++ {
		load = append(load, Delta[rec]{rec{2, id}, 1 / float64(id+3)})
	}
	load = append(load, Delta[rec]{rec{3, 0}, 0.1}, Delta[rec]{rec{3, 1}, 0.2}, Delta[rec]{rec{4, 0}, 2}, Delta[rec]{rec{5, 0}, 0.3})
	j.ApplyLeft(load)
	j.ApplyRight(load[3:])
	a1, _, _ := j.sidesOf(1)
	a2, _, _ := j.sidesOf(2)
	if a1.m == nil || a1.m.pos == nil || a2.m.pos != nil {
		t.Fatal("fixture: want a position index on key 1's left side only")
	}
	if a5, _, _ := j.sidesOf(5); a5.m != nil {
		t.Fatal("fixture: want key 5's left side inline")
	}

	type sides struct {
		g    joinGroup[rec, rec]
		a, b mapImage
	}
	before := map[int]sides{}
	for k := range j.index.toMap() {
		g, _ := j.groupOf(k)
		a, b, _ := j.sidesOf(k)
		before[k] = sides{g, imageOf(a), imageOf(b)}
	}
	_, outBefore := j.openSpills()

	j.Txn(TxnBegin)
	j.ApplyLeft([]Delta[rec]{
		{rec{1, 2}, -2.5},    // swap-delete from the middle of an indexed side
		{rec{2, 1}, 0.75},    // update in place
		{rec{3, 0}, -0.1},    // drain key 3's left side...
		{rec{3, 1}, -0.2},    // ...leaving dust in its norm
		{rec{9, 0}, 1},       // create a group
		{rec{1, 99}, 4},      // insert into the indexed side
		{rec{2, 4}, -1. / 7}, // swap-delete the tail
		{rec{5, 1}, 0.4},     // spill an inline side
	})
	j.ApplyRight([]Delta[rec]{
		{rec{1, 5}, -5.5}, // the other side of the same keys
		{rec{2, 0}, 3},
		{rec{9, 1}, 1},
		{rec{1, 5}, 5.5}, // re-insert what this transaction deleted
	})
	j.ApplyLeft([]Delta[rec]{{rec{1, 99}, -4}, {rec{3, 7}, 1}, {rec{5, 0}, -0.3}}) // and again on top of the first push
	if len(j.a.log.entries) == 0 || len(j.b.log.entries) == 0 || len(j.touched) < 4 {
		t.Fatalf("fixture: %d+%d log entries over %d groups", len(j.a.log.entries), len(j.b.log.entries), len(j.touched))
	}
	j.Txn(TxnAbort)

	if j.index.len() != len(before) {
		t.Errorf("%d groups after abort, want %d", j.index.len(), len(before))
	}
	for k, want := range before {
		a, b, ok := j.sidesOf(k)
		if !ok {
			t.Errorf("key %d: group gone after abort", k)
			continue
		}
		if g, _ := j.groupOf(k); g != want.g {
			t.Errorf("key %d: slot\n got %+v\nwant %+v", k, g, want.g)
		}
		if got := imageOf(a); !got.equal(want.a) {
			t.Errorf("key %d left side:\n got %+v\nwant %+v", k, got, want.a)
		}
		if got := imageOf(b); !got.equal(want.b) {
			t.Errorf("key %d right side:\n got %+v\nwant %+v", k, got, want.b)
		}
	}
	if open, out := j.openSpills(); open != 0 || out != outBefore {
		t.Errorf("abort left %d spills open and %d out of the pools, want %d out", open, out, outBefore)
	}
}

// TestJoinReserveIsExactForLoads pins what a join reserves outside a
// transaction: what the push asserts, run × other under each key. For a
// load — one side then the other, or both sides of a self-join in one
// push — that is exactly the distinct records it accumulates, and the
// entry array the first add finds is the one the push emits: reserved
// once, never regrown. A push that is not a load is not charged for the
// group it touches: moving weight inside a 60 × 60 group reserves its
// 2 × 60 differences, not the 3 720 records a rescale could touch, so its
// accumulator stays under the retention bound and is kept from push to
// push (an upper bound here cost the inverse-push walk 10× its bytes).
func TestJoinReserveIsExactForLoads(t *testing.T) {
	key := func(x int) int { return x % 5 }
	var j *JoinNode[int, int, int, [2]int]
	// reduce runs once per add, after the reservation: it sees which
	// records the push accumulates and the array it accumulates them in.
	added := map[[2]int]bool{}
	atFirstAdd := 0
	pair := func(x, y int) [2]int {
		if len(added) == 0 {
			atFirstAdd = cap(j.diff.ents)
		}
		added[[2]int{x, y}] = true
		return [2]int{x, y}
	}
	emitted := 0
	watch := func(batch []Delta[[2]int]) { emitted = cap(batch) }
	check := func(what string, want int) {
		t.Helper()
		if len(added) != want {
			t.Fatalf("%s accumulated %d distinct records, want %d", what, len(added), want)
		}
		if want > 0 && (atFirstAdd < want || emitted != atFirstAdd) {
			t.Fatalf("%s: room for %d entries at the first add, %d emitted, %d needed — not reserved once", what, atFirstAdd, emitted, want)
		}
		clear(added)
	}
	unit := func(lo, hi int) []Delta[int] {
		var ds []Delta[int]
		for x := lo; x < hi; x++ {
			ds = append(ds, Delta[int]{x, 1})
		}
		return ds
	}

	j = Join(key, key, pair, watch)
	j.ApplyLeft(unit(0, 60))
	check("loading one side against an empty other", 0)
	j.ApplyRight(unit(0, 45))
	check("loading the other side", 5*12*9)

	j = Join(key, key, pair, watch)
	both(j)(unit(0, 1000)) // 5 keys × 200 × 200: past every retention bound
	check("a self-join load", 5*200*200)

	j = Join(func(int) int { return 0 }, func(int) int { return 0 }, pair, watch)
	j.ApplyLeft(unit(0, 60))
	j.ApplyRight(unit(0, 60))
	check("a one-key load", 60*60)
	var kept *Delta[[2]int]
	for step := 0; step < 4; step++ {
		j.ApplyLeft([]Delta[int]{{step, 0.25}, {step + 1, -0.25}}) // the group's norm stays put
		check("moving weight inside a group", 2*60)
		if c := cap(j.diff.ents); c == 0 || c > scratchRetain {
			t.Fatalf("a 2-difference push left an accumulator of capacity %d (kept ones are 1..%d)", c, scratchRetain)
		}
		if first := &j.diff.ents[:1][0]; step > 0 && first != kept {
			t.Fatal("the accumulator was reallocated between two small pushes")
		} else {
			kept = first
		}
	}
}

// TestJoinDistinctLoadMatchesAccumulator is the differential test of a
// distinct join's load path: random batches go through a JoinDistinct
// and a Join with the same injective reduce, and every push must emit
// the same batch from both — records, weight bits and order. A fresh
// load (one side against the other, or a self-join applied left then
// right) must append directly; a second push outside a transaction onto
// records its keys hold, and any push inside a transaction, must take
// the accumulator.
func TestJoinDistinctLoadMatchesAccumulator(t *testing.T) {
	type pairJoin = JoinNode[int, int, int, [2]int]
	key := func(x int) int { return x % 7 }
	var plainOut, distinctOut [][]Delta[[2]int]
	record := func(into *[][]Delta[[2]int]) Handler[[2]int] {
		return func(b []Delta[[2]int]) { *into = append(*into, slices.Clone(b)) }
	}
	// path is what the distinct join's reduce saw its accumulator doing
	// on this push: "" (not called), "direct" or "accumulate".
	var j *pairJoin
	var path string
	pairOf := func(x, y int) [2]int { return [2]int{x, y} }
	observed := func(x, y int) [2]int {
		path = "accumulate"
		if j.diff.direct {
			path = "direct"
		}
		return pairOf(x, y)
	}
	paths := map[string]int{}
	type pair struct{ plain, distinct *pairJoin }
	// push applies one push to both joins and compares what they emit.
	push := func(seed int64, what, want string, js pair, apply func(*pairJoin)) {
		t.Helper()
		plainOut, distinctOut = nil, nil
		apply(js.plain)
		j, path = js.distinct, ""
		apply(js.distinct)
		if path != "" && path != want {
			t.Fatalf("seed %d, %s: took the %s path, want %s", seed, what, path, want)
		}
		paths[what+" "+path]++
		if len(plainOut) != len(distinctOut) {
			t.Fatalf("seed %d, %s: %d batches from Join, %d from JoinDistinct", seed, what, len(plainOut), len(distinctOut))
		}
		for b := range plainOut {
			p, d := plainOut[b], distinctOut[b]
			if len(p) != len(d) {
				t.Fatalf("seed %d, %s: batch of %d from Join, %d from JoinDistinct", seed, what, len(p), len(d))
			}
			for i := range p {
				if p[i].Record != d[i].Record || math.Float64bits(p[i].Weight) != math.Float64bits(d[i].Weight) {
					t.Fatalf("seed %d, %s: element %d is %v from Join, %v from JoinDistinct", seed, what, i, p[i], d[i])
				}
			}
		}
	}
	fresh := func() pair {
		return pair{Join(key, key, pairOf, record(&plainOut)), JoinDistinct(key, key, observed, record(&distinctOut), nil)}
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch := func() []Delta[int] { return randBatch(rng, 60, 1+rng.Intn(80)) }

		js := fresh()
		left, right := batch(), batch()
		push(seed, "load left", "direct", js, func(n *pairJoin) { n.ApplyLeft(left) })
		push(seed, "load right", "direct", js, func(n *pairJoin) { n.ApplyRight(right) })
		again := append(batch(), Delta[int]{left[0].Record, 1}) // onto a key the left side holds
		push(seed, "push onto held records", "accumulate", js, func(n *pairJoin) { n.ApplyLeft(again) })
		inTxn := batch()
		op := TxnCommit
		if rng.Intn(2) == 0 {
			op = TxnAbort
		}
		push(seed, "push in a transaction", "accumulate", js, func(n *pairJoin) {
			n.Txn(TxnBegin)
			n.ApplyRight(inTxn)
			n.Txn(op)
		})

		js = fresh()
		self := batch()
		push(seed, "self-join load", "direct", js, func(n *pairJoin) { both(n)(self) })
	}
	for _, what := range []string{"load right direct", "push onto held records accumulate", "push in a transaction accumulate", "self-join load direct"} {
		if paths[what] == 0 {
			t.Errorf("no seed exercised %q: %v", what, paths)
		}
	}
}

// TestJoinDistinctStreamsLoadInChunks pins a streamed distinct load: a
// self-join whose receiver takes a load in any number of batches emits
// the outer product in chunks of loadChunk records and a shorter last
// one, which together are the accumulator's one batch — records, weight
// bits and order. A push in a transaction afterwards is one batch again.
func TestJoinDistinctStreamsLoadInChunks(t *testing.T) {
	key := func(x int) int { return x % 7 }
	pairOf := func(x, y int) [2]int { return [2]int{x, y} }
	var plainOut, streamedOut [][]Delta[[2]int]
	record := func(into *[][]Delta[[2]int]) Handler[[2]int] {
		return func(b []Delta[[2]int]) { *into = append(*into, slices.Clone(b)) }
	}
	plain := Join(key, key, pairOf, record(&plainOut))
	streamed := streamedJoin(key, key, pairOf, record(&streamedOut))
	same := func(what string, want, got []Delta[[2]int]) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records streamed, %d from Join", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Record != d.Record || math.Float64bits(got[i].Weight) != math.Float64bits(d.Weight) {
				t.Fatalf("%s: element %d is %v streamed, %v from Join", what, i, got[i], d)
			}
		}
	}

	var load []Delta[int]
	for x := range 700 { // 100 records a key: 70 000 paths
		load = append(load, Delta[int]{x, 1 + float64(x%3)/4})
	}
	both(plain)(load)
	both(streamed)(load)
	if len(plainOut) != 1 {
		t.Fatalf("Join emitted the load in %d batches, want 1", len(plainOut))
	}
	same("load", plainOut[0], slices.Concat(streamedOut...))
	n := len(plainOut[0])
	if want := (n + loadChunk - 1) / loadChunk; len(streamedOut) != want || want < 2 {
		t.Fatalf("the load of %d records came in %d batches, want %d of at most %d", n, len(streamedOut), want, loadChunk)
	}
	for i, b := range streamedOut[:len(streamedOut)-1] {
		if len(b) != loadChunk {
			t.Fatalf("chunk %d holds %d records, want %d", i, len(b), loadChunk)
		}
	}

	plainOut, streamedOut = nil, nil
	for _, j := range []*JoinNode[int, int, int, [2]int]{plain, streamed} {
		j.Txn(TxnBegin)
		both(j)([]Delta[int]{{3, -1}, {701, 1}})
		j.Txn(TxnCommit)
	}
	if len(streamedOut) != len(plainOut) {
		t.Fatalf("a proposal came in %d batches streamed, %d from Join", len(streamedOut), len(plainOut))
	}
	for i := range plainOut {
		same(fmt.Sprintf("proposal batch %d", i), plainOut[i], streamedOut[i])
	}
}

// FuzzJoinKeyUpdate checks the join's one update rule against the
// reference join. The fuzzed bytes program a run of cycles: a load (a
// push outside any transaction) or one to three pushes inside a
// transaction that commits or aborts. Every push is one side's batch of
// one to six differences over three keys and four records a key, and a
// difference is one of: a fixed weight; a drain of the record's whole
// weight (a re-add when it holds none); a move of its weight to the next
// record of its key, which keeps the key's norm (the fast path when the
// signs agree); or a change and its exact undo in one batch. After every
// push:
//
//   - the collected output equals weighted.Join of the accumulated
//     inputs within eqTol (1e-8): the inputs are sums of a few multiples
//     of 0.1, so rounding sits orders of magnitude below it;
//   - FastKeys + SlowKeys grew by exactly the number of the batch's
//     distinct keys whose other side holds a record.
//
// After every cycle each side holds exactly the accumulated inputs, and
// an abort restores StateSize; the collected output is restored as an
// aborting downstream would, so the next push checks what the abort
// left. Two joins run the program: a merging one whose reduce collapses
// pairs of different keys, and a distinct one whose loads skip the
// accumulator's table.
func FuzzJoinKeyUpdate(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 12, 49, 0, 1, 13, 1, 88, 0, 84, 4, 2, 72, 85})
	f.Add([]byte{0, 4, 0, 3, 6, 0, 2, 26, 1, 10, 84, 85, 86, 97, 98, 2, 3, 12, 100, 14, 1, 0, 72})
	f.Add([]byte{3, 1, 0, 1, 9, 6, 96, 72, 3, 37, 0, 1, 2, 3, 4, 5, 0, 11, 12, 13, 24, 36, 48, 60})
	f.Add([]byte{0, 10, 0, 1, 2, 3, 4, 5, 0, 11, 0, 1, 2, 3, 4, 5, 1, 2, 84, 90, 2, 4, 85, 86, 87, 8, 5, 2, 72, 73, 96, 100})
	// Key 0's left side through 0 → 1 → 2 → 1 → 0 records beside one
	// right record: loaded, then committed in one transaction; then
	// 0 → 1 → 2 → 1 aborted.
	f.Add([]byte{0, 1, 0, 0, 0, 0, 7, 0, 39, 0, 72, 0, 75, 8, 0, 0, 0, 39, 0, 72})
	// The same as loads, at 0.1 and −0.3: the spill left holding −0.3
	// has a norm of 0.30000000000000004 and stays spilled.
	f.Add([]byte{0, 1, 0, 0, 0, 48, 0, 0, 63, 0, 0, 72, 0, 0, 75, 0, 0, 48})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return
		}
		runJoinProgram(t, "merging", prog, Join[rec, rec, int, [2]int],
			func(x, y rec) [2]int { return [2]int{x.id, y.id} })
		runJoinProgram(t, "distinct", prog, streamedJoin[rec, rec, int, [2]rec],
			func(x, y rec) [2]rec { return [2]rec{x, y} })
	})
}

// joinFuzzWeights are the fixed weights a fuzzed difference may carry;
// the codes past them are the drain, the move and the change-and-undo.
var joinFuzzWeights = []float64{1, -1, 0.5, 2, 0.1, -0.3}

// runJoinProgram runs one FuzzJoinKeyUpdate program on the join build
// makes with reduce.
func runJoinProgram[R comparable](t *testing.T, name string, prog []byte,
	build func(func(rec) int, func(rec) int, func(rec, rec) R, Handler[R]) *JoinNode[rec, rec, int, R],
	reduce func(rec, rec) R,
) {
	out := weighted.New[R]()
	j := build(recKey, recKey, reduce, func(b []Delta[R]) { fold(out)(b) })
	refs := [2]*weighted.Dataset[rec]{weighted.New[rec](), weighted.New[rec]()} // left, right
	take := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	for cycle := 0; len(prog) > 0; cycle++ {
		c := take()
		mode, pushes := c%3, 1+c/3%3 // mode 0: a load, 1: commit, 2: abort
		var began *weighted.Dataset[R]
		var beganRefs [2]*weighted.Dataset[rec]
		beganSize := j.StateSize()
		if mode == 0 {
			pushes = 1
		} else {
			began, beganRefs = out.Clone(), [2]*weighted.Dataset[rec]{refs[0].Clone(), refs[1].Clone()}
			j.Txn(TxnBegin)
		}
		for range pushes {
			h := take()
			side := h & 1
			own, other := refs[side], refs[1-side]
			var batch []Delta[rec]
			add := func(r rec, w float64) {
				batch = append(batch, Delta[rec]{r, w})
				own.Add(r, w)
			}
			for range 1 + h>>1%6 {
				b := take()
				r := rec{k: b % 3, id: b / 3 % 4}
				switch code := b / 12 % (len(joinFuzzWeights) + 3); {
				case code < len(joinFuzzWeights):
					add(r, joinFuzzWeights[code])
				case code == len(joinFuzzWeights): // drain, or re-add
					if w := own.Weight(r); w != 0 {
						add(r, -w)
					} else {
						add(r, 1)
					}
				case code == len(joinFuzzWeights)+1: // move
					w := own.Weight(r)
					add(r, -w)
					add(rec{r.k, (r.id + 1) % 4}, w)
				default: // change and undo
					add(r, 1.5)
					add(r, -1.5)
				}
			}
			var keys []int
			for _, d := range batch {
				if !slices.Contains(keys, d.Record.k) {
					keys = append(keys, d.Record.k)
				}
			}
			matched := 0
			for _, k := range keys {
				if slices.ContainsFunc(other.Records(), func(y rec) bool { return y.k == k }) {
					matched++
				}
			}
			counted := j.FastKeys() + j.SlowKeys()
			if side == 0 {
				j.ApplyLeft(batch)
			} else {
				j.ApplyRight(batch)
			}
			if got := j.FastKeys() + j.SlowKeys() - counted; got != int64(matched) {
				t.Fatalf("%s cycle %d: %d key updates counted, want %d (batch %v)", name, cycle, got, matched, batch)
			}
			if want := weighted.Join(refs[0], refs[1], recKey, recKey, reduce); !weighted.Equal(out, want, eqTol) {
				t.Fatalf("%s cycle %d: output diverged from the reference join (batch %v)\nincremental: %v\nreference:   %v", name, cycle, batch, out, want)
			}
		}
		switch mode {
		case 1:
			j.Txn(TxnCommit)
		case 2:
			j.Txn(TxnAbort)
			out, refs = began, beganRefs
			if got := j.StateSize(); got != beganSize {
				t.Fatalf("%s cycle %d: StateSize %d after abort, want %d", name, cycle, got, beganSize)
			}
		}
		sides := [2]*weighted.Dataset[rec]{weighted.New[rec](), weighted.New[rec]()}
		j.index.each(func(k int, _ int32) {
			a, b, _ := j.sidesOf(k)
			a.each(sides[0].Add)
			b.each(sides[1].Add)
		})
		exactEqual(t, name+" left side", sides[0], refs[0])
		exactEqual(t, name+" right side", sides[1], refs[1])
	}
}
