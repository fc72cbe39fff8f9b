package incremental

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"wpinq/internal/weighted"
)

// checkSlots feeds keys through idx.slot and checks every answer against
// a plain map: first appearances get the next slot, repeats get theirs
// back, and find agrees throughout.
func checkSlots(t *testing.T, idx *scratchIndex[int], keys []int) {
	t.Helper()
	want := map[int]int{}
	for _, k := range keys {
		i, fresh := idx.slot(k)
		w, seen := want[k]
		if !seen {
			w = len(want)
			want[k] = w
		}
		if i != w || fresh == seen {
			t.Fatalf("slot(%d) = %d, fresh %v; want %d, fresh %v", k, i, fresh, w, !seen)
		}
	}
	if len(idx.ents) != len(want) {
		t.Fatalf("%d keys held, want %d", len(idx.ents), len(want))
	}
	for k, w := range want {
		if i, ok := idx.find(k); !ok || i != w || idx.ents[i].Record != k {
			t.Fatalf("find(%d) = %d, %v; want %d, true", k, i, ok, w)
		}
	}
	if _, ok := idx.find(-1); ok {
		t.Fatal("find reports a key that was never added")
	}
}

func TestScratchIndexHandOverAtThreshold(t *testing.T) {
	var idx scratchIndex[int]
	keys := make([]int, scratchLinear)
	for i := range keys {
		keys[i] = 100 + 7*i
	}
	checkSlots(t, &idx, append(keys, keys...)) // repeats do not count
	if idx.hashed || idx.cells != nil {
		t.Fatalf("%d distinct keys built the table (hashed %v, %d cells)", scratchLinear, idx.hashed, len(idx.cells))
	}
	// One more distinct key hands over: the keys scanned so far must all
	// be findable through the table, at their original slots.
	if i, fresh := idx.slot(999); !fresh || i != scratchLinear {
		t.Fatalf("slot(999) = %d, fresh %v; want %d, true", i, fresh, scratchLinear)
	}
	if !idx.hashed {
		t.Fatal("the key past scratchLinear did not switch the index to its table")
	}
	for i, k := range keys {
		if j, fresh := idx.slot(k); fresh || j != i {
			t.Fatalf("after hand-over slot(%d) = %d, fresh %v; want %d, false", k, j, fresh, i)
		}
	}
	idx.reset(false)
	if idx.hashed || len(idx.ents) != 0 {
		t.Fatal("reset left the index hashed or non-empty")
	}
	if _, ok := idx.find(999); ok {
		t.Fatal("a key survived reset")
	}
}

func TestScratchIndexGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var idx scratchIndex[int]
	for push := 0; push < 50; push++ {
		keys := make([]int, rng.Intn(3000))
		for i := range keys {
			keys[i] = rng.Intn(2000) // plenty of repeats
		}
		checkSlots(t, &idx, keys)
		if idx.hashed && 2*len(idx.ents) > len(idx.cells) {
			t.Fatalf("table over half full: %d keys in %d cells", len(idx.ents), len(idx.cells))
		}
		idx.reset(false)
	}
}

func TestScratchIndexGenerationWraps(t *testing.T) {
	var idx scratchIndex[int]
	keys := make([]int, 40)
	for i := range keys {
		keys[i] = i * i
	}
	checkSlots(t, &idx, keys)
	idx.reset(false)
	// The cells just written carry the generation about to come round
	// again; without the sweep on wrap-around they would read as live.
	stale := idx.gen
	idx.gen = math.MaxUint32
	for _, want := range []uint32{1, 2} {
		other := make([]int, 30)
		for i := range other {
			other[i] = 1000 + i
		}
		checkSlots(t, &idx, other)
		if idx.gen != want {
			t.Fatalf("generation %d after wrap, want %d", idx.gen, want)
		}
		if _, ok := idx.find(keys[len(keys)-1]); ok {
			t.Fatalf("a cell stamped %d came back to life at generation %d", stale, idx.gen)
		}
		idx.reset(false)
	}
}

// TestScratchReleasesLoadCapacity pins the release rule: a push outside
// a transaction (a load) gives back every buffer it grew past
// scratchRetain as it ends; a push inside one (a fit's proposal) keeps
// its buffers whatever their size, so a large proposal is paid for once.
func TestScratchReleasesLoadCapacity(t *testing.T) {
	var idx scratchIndex[int]
	fill := func(n int) {
		for i := 0; i < n; i++ {
			idx.slot(i)
		}
	}
	fill(scratchRetain / 2)
	idx.reset(false)
	if idx.ents == nil || idx.cells == nil {
		t.Fatalf("a load of %d keys, under the bound, lost its buffers", scratchRetain/2)
	}
	fill(4 * scratchRetain)
	idx.reset(true)
	if cap(idx.ents) < 4*scratchRetain || idx.cells == nil {
		t.Fatalf("a transaction's push of %d keys lost its buffers", 4*scratchRetain)
	}
	fill(10)
	idx.reset(false)
	if idx.ents != nil || idx.cells != nil {
		t.Fatalf("oversized buffers survived a push outside a transaction (cap %d keys, %d cells; bound %d)",
			cap(idx.ents), len(idx.cells), scratchRetain)
	}
	checkSlots(t, &idx, []int{5, 6, 5, 7}) // and works from nothing again

	if got := Recycle(make([]int, 3, scratchRetain), false); got == nil || len(got) != 0 || cap(got) != scratchRetain {
		t.Fatalf("Recycle at the bound: len %d cap %d, want the same array emptied", len(got), cap(got))
	}
	if got := Recycle(make([]int, 3, scratchRetain+1), false); got != nil {
		t.Fatalf("Recycle past the bound kept capacity %d", cap(got))
	}
	if got := Recycle(make([]int, 3, scratchRetain+1), true); len(got) != 0 || cap(got) != scratchRetain+1 {
		t.Fatalf("Recycle in a transaction: len %d cap %d, want the same array emptied", len(got), cap(got))
	}

	// The operators' own buffers follow the rule: the load leaves nothing
	// oversized behind, and the same batch as a proposal leaves its
	// buffers for the next one.
	j := Join(
		func(x int) int { return x / 2 }, func(y int) int { return y / 2 },
		func(x, y int) [2]int { return [2]int{x, y} }, func([]Delta[[2]int]) {})
	push := both(j)
	scratch := func() map[string]int {
		return map[string]int{
			"grouper flat": cap(j.byKeyA.flat), "grouper slots": cap(j.byKeyA.slots), "grouper keys": cap(j.byKeyA.idx.ents),
			"diff entries": cap(j.diff.ents), "diff table": len(j.diff.cells),
		}
	}
	bulk := make([]Delta[int], 4*scratchRetain)
	for i := range bulk {
		bulk[i] = Delta[int]{i, 1}
	}
	push(bulk)
	for name, c := range scratch() {
		if c > scratchRetain {
			t.Errorf("%s: capacity %d outlived the load", name, c)
		}
	}
	for i := range bulk {
		bulk[i].Weight = -0.5
	}
	j.Txn(TxnBegin)
	push(bulk)
	j.Txn(TxnCommit)
	kept := scratch()
	for name, c := range kept {
		if c < len(bulk)/2 {
			t.Errorf("%s: capacity %d after a %d-difference proposal, want it kept", name, c, len(bulk))
		}
	}
	j.Txn(TxnBegin)
	push(bulk[:10])
	j.Txn(TxnAbort)
	for name, c := range scratch() {
		if c != kept[name] {
			t.Errorf("%s: capacity %d -> %d across a small proposal", name, kept[name], c)
		}
	}
}

// bucketsByMap is the grouping the flat grouper replaced, kept here as
// its reference: a key -> slot map, a first-appearance key list and one
// bucket slice per key.
func bucketsByMap(batch []Delta[int], key func(int) int) (keys []int, buckets [][]Delta[int]) {
	slot := map[int]int{}
	for _, d := range batch {
		k := key(d.Record)
		i, seen := slot[k]
		if !seen {
			i = len(keys)
			slot[k] = i
			keys = append(keys, k)
			buckets = append(buckets, nil)
		}
		buckets[i] = append(buckets[i], d)
	}
	return keys, buckets
}

func TestKeyGrouperMatchesMapBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var g keyGrouper[int, int]
	for trial := 0; trial < 300; trial++ {
		nkeys := 1 + rng.Intn(40) // both sides of scratchLinear
		key := func(x int) int { return x % nkeys }
		batch := make([]Delta[int], rng.Intn(200))
		for i := range batch {
			batch[i] = Delta[int]{Record: rng.Intn(500), Weight: float64(i)} // weight tags arrival order
		}
		wantKeys, wantBuckets := bucketsByMap(batch, key)
		keys := g.group(batch, key)
		if len(keys) != len(wantKeys) {
			t.Fatalf("trial %d: %d keys, want %d", trial, len(keys), len(wantKeys))
		}
		for i, e := range keys {
			k := e.Record
			if k != wantKeys[i] {
				t.Fatalf("trial %d: key %d is %d, want %d (first-appearance order)", trial, i, k, wantKeys[i])
			}
			run := g.run(i)
			if len(run) != len(wantBuckets[i]) {
				t.Fatalf("trial %d key %d: %d deltas, want %d", trial, k, len(run), len(wantBuckets[i]))
			}
			for j, d := range run {
				if d != wantBuckets[i][j] {
					t.Fatalf("trial %d key %d: delta %d is %v, want %v (arrival order)", trial, k, j, d, wantBuckets[i][j])
				}
			}
		}
		g.reset(false)
	}
}

// refDiff is the obvious difference accumulator orderedDiff must match
// bit for bit: a record -> position map, an order slice, and the same
// per-add arithmetic (sum, collapse below Eps to exactly zero).
type refDiff struct {
	pos  map[int]int
	recs []int
	ws   []float64
}

func (r *refDiff) add(x int, w float64) {
	i, seen := r.pos[x]
	if !seen {
		if r.pos == nil {
			r.pos = map[int]int{}
		}
		i = len(r.recs)
		r.pos[x] = i
		r.recs = append(r.recs, x)
		r.ws = append(r.ws, 0)
	} else {
		w += r.ws[i]
	}
	if math.Abs(w) < weighted.Eps {
		w = 0
	}
	r.ws[i] = w
}

func (r *refDiff) takeBatch() []Delta[int] {
	var out []Delta[int]
	for i, w := range r.ws {
		if w != 0 {
			out = append(out, Delta[int]{r.recs[i], w})
		}
	}
	*r = refDiff{}
	return out
}

// TestOrderedDiffMatchesReference pins "same order, same floats" for the
// in-place accumulator: over random add sequences — repeats, sums that
// collapse below Eps and are re-added later, every side of scratchLinear
// and scratchRetain, a reservation smaller than, equal to and larger
// than the distinct count, one accumulator reused across kept and
// released flushes — it emits the reference's records, in its order,
// with its weight bits.
func TestOrderedDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	weights := []float64{1, -1, 0.5, -0.5, 0.25, weighted.Eps / 4, -weighted.Eps / 4, 0}
	var d orderedDiff[int]
	var ref refDiff
	for trial := 0; trial < 400; trial++ {
		dom := []int{3, scratchLinear, scratchLinear + 1, 40, 700, 3 * scratchRetain}[trial%6]
		adds := make([]Delta[int], rng.Intn(4*dom+2))
		distinct := map[int]bool{}
		for i := range adds {
			w := weights[rng.Intn(len(weights))]
			if rng.Intn(3) == 0 {
				w = rng.NormFloat64()
			}
			adds[i] = Delta[int]{rng.Intn(dom), w}
			distinct[adds[i].Record] = true
		}
		switch trial % 4 { // 0: no reservation
		case 1:
			d.reserve(len(distinct) / 2)
		case 2:
			d.reserve(len(distinct))
		case 3:
			d.reserve(3*len(distinct) + 9)
		}
		for _, a := range adds {
			d.add(a.Record, a.Weight)
			ref.add(a.Record, a.Weight)
		}
		if len(d.ents) != len(distinct) {
			t.Fatalf("trial %d: %d entries for %d distinct records", trial, len(d.ents), len(distinct))
		}
		keep := rng.Intn(2) == 0
		got, want := d.takeBatch(keep), ref.takeBatch()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d differences, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Record != want[i].Record || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
				t.Fatalf("trial %d: difference %d is %v, want %v (same record, same bits)", trial, i, got[i], want[i])
			}
		}
		if len(d.ents) != 0 || d.hashed {
			t.Fatalf("trial %d: takeBatch left %d entries (hashed %v)", trial, len(d.ents), d.hashed)
		}
		// The emitted batch is the entry array: kept for the next push
		// inside a transaction, given up with its table after a load.
		if !keep && cap(got) > scratchRetain {
			if d.ents != nil || d.cells != nil {
				t.Fatalf("trial %d: a load's %d-entry array (or its table) outlived the flush", trial, cap(got))
			}
		} else if len(got) > 0 && (cap(d.ents) != cap(got) || &got[0] != &d.ents[:1][0]) {
			t.Fatalf("trial %d (keep %v): the emitted batch is not the kept entry array", trial, keep)
		}
	}
}

// TestScratchReserveBuildsOnce pins what reserve is for: a push that
// stays inside its reservation allocates its entry array and its table
// once — no regrowth, no rehash — and one that could need more slots
// than a cell can number is refused before it allocates anything, on
// the distinct path (reserveDistinct) too.
func TestScratchReserveBuildsOnce(t *testing.T) {
	const n = 5 * scratchRetain
	var idx scratchIndex[int]
	idx.reserve(n)
	ents, cells, gen := &idx.ents[:1][0], &idx.cells[0], idx.gen
	if cap(idx.ents) < n || len(idx.cells) < 2*n {
		t.Fatalf("reserve(%d) left room for %d entries in %d cells", n, cap(idx.ents), len(idx.cells))
	}
	keys := make([]int, 2*n)
	for i := range keys {
		keys[i] = (i * 7919) % n // every key twice
	}
	checkSlots(t, &idx, keys)
	if &idx.ents[0] != ents || &idx.cells[0] != cells || idx.gen != gen {
		t.Fatalf("a push inside its reservation regrew or rehashed (generation %d -> %d)", gen, idx.gen)
	}

	idx.reset(false)
	var diff orderedDiff[int]
	for _, c := range []struct {
		what    string
		reserve func(int)
		ents    *[]Delta[int]
	}{{"reserve", idx.reserve, &idx.ents}, {"reserveDistinct", func(n int) { diff.reserveDistinct(n, nil) }, &diff.ents}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "incremental: push of 2147483648 distinct records exceeds") {
					t.Fatalf("%s past the slot width: recovered %q, want the named panic", c.what, msg)
				}
				if *c.ents != nil {
					t.Fatalf("the refused %s allocated", c.what)
				}
			}()
			c.reserve(math.MaxInt32 + 1)
		}()
	}
}
