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
		j.groups.each(func(_ int, g *joinGroup[rec, rec]) {
			g.a.each(sides[0].Add)
			g.b.each(sides[1].Add)
		})
		exactEqual(t, name+" left side", sides[0], refs[0])
		exactEqual(t, name+" right side", sides[1], refs[1])
	}
}
