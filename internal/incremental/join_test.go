package incremental

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
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

// TestJoinDrainedSideNormIsExactlyZero pins what pairing the two sides
// of a key must not lose. When the sides were separate map entries, a
// side that drained was dropped and re-created fresh, so its norm read
// bit-exact 0 the next time the key's denominator was formed. Paired, the
// drained side stays beside its partner — and a drained stateMap can
// carry float dust (0.1 + 0.2 - 0.1 - 0.2 leaves 2.8e-17), so it must be
// reset at the same two points the drop used to happen: after the push
// outside a transaction, at commit inside one.
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
		g := j.groups.get(7)
		if g == nil || g.a.len() != 0 || g.b.len() != 1 {
			t.Fatalf("group 7 = %+v, want an empty left side beside the right record", g)
		}
		if g.a.norm != 0 {
			t.Errorf("drained side's norm = %g, want exactly 0", g.a.norm)
		}
	})

	t.Run("at commit", func(t *testing.T) {
		j := load()
		j.Txn(TxnBegin)
		j.ApplyLeft([]Delta[rec]{{rec{7, 1}, -0.1}})
		j.ApplyLeft([]Delta[rec]{{rec{7, 2}, -0.2}})
		g := j.groups.get(7)
		if g.a.len() != 0 || g.a.norm == 0 {
			// The dust is what makes this test bite; and it must survive
			// until commit, as it did when the drop was deferred.
			t.Fatalf("open transaction: %d records, norm %g; want 0 records and float dust", g.a.len(), g.a.norm)
		}
		j.Txn(TxnCommit)
		if j.groups.get(7) != g {
			t.Fatal("commit dropped a group whose right side still holds a record")
		}
		if g.a.norm != 0 {
			t.Errorf("drained side's norm = %g after commit, want exactly 0", g.a.norm)
		}
		if g.a.log != nil || g.b.log != nil {
			t.Error("commit left the group's sides open")
		}
	})
}

func TestJoinAbortDropsCreatedGroups(t *testing.T) {
	j := newRecJoin()
	j.ApplyLeft([]Delta[rec]{{rec{1, 0}, 1}})
	j.ApplyRight([]Delta[rec]{{rec{1, 1}, 1}})

	j.Txn(TxnBegin)
	j.ApplyLeft([]Delta[rec]{{rec{2, 0}, 1}, {rec{3, 0}, 2}})
	j.ApplyRight([]Delta[rec]{{rec{3, 1}, 1}, {rec{4, 1}, 1}})
	if j.groups.len() != 4 {
		t.Fatalf("%d groups inside the transaction, want 4", j.groups.len())
	}
	j.Txn(TxnAbort)

	if j.groups.len() != 1 || j.groups.get(1) == nil {
		t.Fatalf("groups after abort: %v, want only key 1", slices.Collect(maps.Keys(j.groups.toMap())))
	}
	if len(j.pool.free) != 3 {
		t.Errorf("%d groups on the freelist, want the 3 the transaction created", len(j.pool.free))
	}
	for _, g := range j.pool.free {
		if g.a.len() != 0 || g.b.len() != 0 || g.a.norm != 0 || g.b.norm != 0 || g.a.log != nil || g.b.log != nil {
			t.Errorf("pooled group not fresh: %+v", g)
		}
	}
	if len(j.touched) != 0 || len(j.logA.entries) != 0 || len(j.logB.entries) != 0 {
		t.Error("abort left transaction state behind")
	}
}

// mapImage is a deep copy of everything abort must restore in one
// stateMap.
type mapImage struct {
	recs []rec
	ws   []float64
	pos  map[rec]int
	norm float64
}

func imageOf(m *stateMap[rec]) mapImage {
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
// four groups and both sides — inserts, in-place updates, swap-deletes
// from the middle and the tail, a drain, a group created, a fifth group
// left alone — through the node's two shared logs, and requires abort to put
// back every side's records, weights, slice order, position index and
// norm exactly. The per-map logs this replaces were each replayed on
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
	load = append(load, Delta[rec]{rec{3, 0}, 0.1}, Delta[rec]{rec{3, 1}, 0.2}, Delta[rec]{rec{4, 0}, 2})
	j.ApplyLeft(load)
	j.ApplyRight(load[3:])
	if j.groups.get(1).a.pos == nil || j.groups.get(2).a.pos != nil {
		t.Fatal("fixture: want a position index on key 1's left side only")
	}

	type sides struct{ a, b mapImage }
	before := map[int]sides{}
	for k, g := range j.groups.toMap() {
		before[k] = sides{imageOf(&g.a), imageOf(&g.b)}
	}

	j.Txn(TxnBegin)
	j.ApplyLeft([]Delta[rec]{
		{rec{1, 2}, -2.5},    // swap-delete from the middle of an indexed side
		{rec{2, 1}, 0.75},    // update in place
		{rec{3, 0}, -0.1},    // drain key 3's left side...
		{rec{3, 1}, -0.2},    // ...leaving dust in its norm
		{rec{9, 0}, 1},       // create a group
		{rec{1, 99}, 4},      // insert into the indexed side
		{rec{2, 4}, -1. / 7}, // swap-delete the tail
	})
	j.ApplyRight([]Delta[rec]{
		{rec{1, 5}, -5.5}, // the other side of the same keys
		{rec{2, 0}, 3},
		{rec{9, 1}, 1},
		{rec{1, 5}, 5.5}, // re-insert what this transaction deleted
	})
	j.ApplyLeft([]Delta[rec]{{rec{1, 99}, -4}, {rec{3, 7}, 1}}) // and again on top of the first push
	if len(j.logA.entries) == 0 || len(j.logB.entries) == 0 || len(j.touched) < 4 {
		t.Fatalf("fixture: %d+%d log entries over %d groups", len(j.logA.entries), len(j.logB.entries), len(j.touched))
	}
	j.Txn(TxnAbort)

	if j.groups.len() != len(before) {
		t.Errorf("%d groups after abort, want %d", j.groups.len(), len(before))
	}
	for k, want := range before {
		g := j.groups.get(k)
		if g == nil {
			t.Errorf("key %d: group gone after abort", k)
			continue
		}
		if got := imageOf(&g.a); !got.equal(want.a) {
			t.Errorf("key %d left side:\n got %+v\nwant %+v", k, got, want.a)
		}
		if got := imageOf(&g.b); !got.equal(want.b) {
			t.Errorf("key %d right side:\n got %+v\nwant %+v", k, got, want.b)
		}
		if g.a.log != nil || g.b.log != nil {
			t.Errorf("key %d: abort left a side open", k)
		}
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
		return pair{Join(key, key, pairOf, record(&plainOut)), JoinDistinct(key, key, observed, record(&distinctOut))}
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
