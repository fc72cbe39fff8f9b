package incremental

import (
	"fmt"
	"slices"
	"testing"

	"wpinq/internal/weighted"
)

// inWindow reports whether prefix is a window on group's live records:
// the expansion copied nothing.
func inWindow[T comparable](prefix []T, group *stateMap[T]) bool {
	return group != nil && len(group.recs) > 0 && &prefix[0] == &group.recs[0]
}

// TestGroupByExpandsInPlace pins the in-place expansion. A degree-
// preserving swap moves one record of a vertex group of unit weights out
// and a new one in: the group is in weight order before and after, so
// each expansion reduces once, over a window on the group's own records,
// and the retraction and the assertion cancel. The push allocates
// nothing. A group of mixed weights still reduces once per emitted
// prefix, in place when its weights already run non-increasing and over
// a sorted copy when they do not.
func TestGroupByExpandsInPlace(t *testing.T) {
	var n *GroupByNode[rec, int, int]
	calls, windows, emitted := 0, 0, 0
	n = GroupBy(recKey, func(m []rec) int {
		calls++
		if inWindow(m, n.groups.get(m[0].k)) {
			windows++
		}
		return len(m)
	}, func(b []Delta[weighted.Grouped[int, int]]) { emitted += len(b) })

	const size = 64
	load := make([]Delta[rec], size)
	for i := range load {
		load[i] = Delta[rec]{rec{0, i}, 1}
	}
	n.Apply(load)
	swap := []Delta[rec]{{rec{0, 0}, -1}, {rec{0, size}, 1}}
	push := func() {
		n.Txn(TxnBegin)
		n.Apply(swap)
		n.Txn(TxnAbort)
	}
	push() // warm the undo log and the grouping scratch
	calls, windows, emitted = 0, 0, 0
	push()
	if calls != 2 || windows != 2 {
		t.Errorf("a swap on a unit-weight group reduced %d times, %d of them in place; want 2 and 2", calls, windows)
	}
	if emitted != 0 {
		t.Errorf("a swap on a unit-weight group emitted %d differences, want none", emitted)
	}
	if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
		t.Errorf("a swap on a unit-weight group allocated %.1f times a push, want 0", allocs)
	}

	// Mixed weights: 3, 2, 2, 1 emits three prefixes ({3}, {3,2,2} and
	// the whole group); the tie's inner boundary carries weight 0.
	for i, c := range []struct {
		name    string
		ws      []float64
		inPlace bool
	}{
		{"in order", []float64{3, 2, 2, 1}, true},
		{"out of order", []float64{1, 2, 3, 2}, false},
	} {
		key := 1 + i // a group of its own
		var batch []Delta[rec]
		for i, w := range c.ws {
			batch = append(batch, Delta[rec]{rec{key, i}, w})
		}
		calls, windows = 0, 0
		n.Apply(batch)
		wantWindows := 0
		if c.inPlace {
			wantWindows = 3
		}
		if calls != 3 || windows != wantWindows {
			t.Errorf("%s: weights %v reduced %d times, %d of them in place; want 3 and %d", c.name, c.ws, calls, windows, wantWindows)
		}
	}
}

// groupFuzzWeights are the fixed weights a fuzzed difference may carry:
// ties (every 1) and their undo, a small and a negative weight, and weights at and just
// above Eps — a record of weight 2·Eps alone emits at exactly Eps.
var groupFuzzWeights = []float64{1, -1, 0.1, -0.3, 2 * weighted.Eps, 1.5 * weighted.Eps, weighted.Eps}

// FuzzGroupByPrefix checks the GroupBy operator against the reference
// weighted.GroupBy. The fuzzed bytes program a run of cycles, as
// FuzzJoinKeyUpdate's do: a load, or one to three pushes inside a
// transaction that commits or aborts. A push is one to six differences
// over three keys and five records a key; a difference is one of the
// fixed weights, or a drain of the record's whole weight (a re-add when
// it holds none). Adding 1 to a group's last record can take the group
// out of weight order, and adding −1 back brings it in again. The reduce
// maps a prefix to the set of its record ids, so every prefix of a group
// is a distinct output record. After every push:
//
//   - the collected output equals weighted.GroupBy of the accumulated
//     input within eqTol (1e-8): the inputs are sums of a few multiples
//     of 0.1 and of Eps, so rounding sits orders of magnitude below it;
//   - reduce ran exactly once per prefix the touched groups emitted
//     before and after the push;
//   - each reduce ran over a window on the group's live records exactly
//     when the group's weights ran non-increasing with the last above
//     Eps, and over a sorted copy otherwise.
//
// After every cycle the group state holds exactly the accumulated
// inputs, and an abort restores StateSize; the collected output is
// restored as an aborting downstream would, so the next push checks
// what the abort left.
func FuzzGroupByPrefix(f *testing.F) {
	f.Add([]byte{0, 10, 0, 3, 6, 9, 12, 15, 1, 4, 0, 3, 84, 15, 2, 2, 12, 3})
	f.Add([]byte{0, 8, 0, 1, 2, 48, 60, 1, 2, 3, 16, 2, 0, 0, 15, 18, 45})
	f.Add([]byte{0, 6, 0, 3, 6, 9, 1, 4, 45, 48, 51, 0, 2, 2, 105, 91, 5, 0, 9, 12})
	f.Add([]byte{3, 4, 1, 16, 31, 46, 61, 76, 2, 10, 90, 91, 92, 93, 94, 95})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return
		}
		runGroupByProgram(t, prog)
	})
}

// idSet is the fuzz reduce: the set of a prefix's record ids as a bit
// mask, which does not depend on the order of equal-weight records.
func idSet(m []rec) int {
	s := 0
	for _, r := range m {
		s |= 1 << r.id
	}
	return s
}

// prefixCount returns how many prefixes the keys' groups emit under
// the reference GroupBy of ref.
func prefixCount(ref *weighted.Dataset[rec], keys []int) int {
	count := 0
	weighted.GroupBy(ref, recKey, idSet).Range(func(g weighted.Grouped[int, int], _ float64) {
		for _, k := range keys {
			if g.Key == k {
				count++
			}
		}
	})
	return count
}

// inOrder is the test's own reading of when a group expands in place.
func inOrder(ws []float64) bool {
	for i := 1; i < len(ws); i++ {
		if ws[i] > ws[i-1] {
			return false
		}
	}
	return len(ws) > 0 && ws[len(ws)-1] > weighted.Eps
}

// runGroupByProgram runs one FuzzGroupByPrefix program.
func runGroupByProgram(t *testing.T, prog []byte) {
	out := weighted.New[weighted.Grouped[int, int]]()
	ref := weighted.New[rec]()
	var n *GroupByNode[rec, int, int]
	calls := 0
	var misplaced []string
	n = GroupBy(recKey, func(m []rec) int {
		calls++
		g := n.groups.get(m[0].k)
		if inWindow(m, g) != inOrder(g.ws) {
			misplaced = append(misplaced, fmt.Sprintf("group %v expanded in place=%v", g.ws, inWindow(m, g)))
		}
		return idSet(m)
	}, func(b []Delta[weighted.Grouped[int, int]]) { fold(out)(b) })
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
		var began *weighted.Dataset[weighted.Grouped[int, int]]
		var beganIn *weighted.Dataset[rec]
		beganSize := n.StateSize()
		if mode == 0 {
			pushes = 1
		} else {
			began, beganIn = out.Clone(), ref.Clone()
			n.Txn(TxnBegin)
		}
		for range pushes {
			var batch []Delta[rec]
			var keys []int
			before := ref.Clone()
			for range 1 + take()%6 {
				b := take()
				r := rec{k: b % 3, id: b / 3 % 5}
				w := 1.0 // a re-add
				if code := b / 15 % (len(groupFuzzWeights) + 1); code < len(groupFuzzWeights) {
					w = groupFuzzWeights[code]
				} else if held := ref.Weight(r); held != 0 {
					w = -held // a drain
				}
				batch = append(batch, Delta[rec]{r, w})
				ref.Add(r, w)
				if !slices.Contains(keys, r.k) {
					keys = append(keys, r.k)
				}
			}
			calls, misplaced = 0, nil
			n.Apply(batch)
			if len(misplaced) > 0 {
				t.Fatalf("cycle %d: %v (batch %v)", cycle, misplaced, batch)
			}
			if want := prefixCount(before, keys) + prefixCount(ref, keys); calls != want {
				t.Fatalf("cycle %d: reduce ran %d times, want %d: one per emitted prefix before and after (batch %v)", cycle, calls, want, batch)
			}
			if want := weighted.GroupBy(ref, recKey, idSet); !weighted.Equal(out, want, eqTol) {
				t.Fatalf("cycle %d: output diverged from the reference GroupBy (batch %v)\nincremental: %v\nreference:   %v", cycle, batch, out, want)
			}
		}
		switch mode {
		case 1:
			n.Txn(TxnCommit)
		case 2:
			n.Txn(TxnAbort)
			out, ref = began, beganIn
			if got := n.StateSize(); got != beganSize {
				t.Fatalf("cycle %d: StateSize %d after abort, want %d", cycle, got, beganSize)
			}
		}
		held := weighted.New[rec]()
		n.groups.each(func(_ int, g *stateMap[rec]) { g.each(held.Add) })
		exactEqual(t, "group state", held, ref)
	}
}
