package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// Swap is one degree-preserving double-edge swap (paper Section 5.1): the
// undirected edges {A,B} and {C,D}, held at slots I and J, are replaced by
// {A,D} and {C,B}.
type Swap struct {
	I, J       int
	A, B, C, D Node
}

// Swaps is a simple graph's edge set under double-edge swaps: the edges in
// a slice whose slots Propose indexes, beside a flat set of the same edges
// packed one per word, so an adjacency test is one probe. It is the one
// implementation of the paper's move: Rewire and FromDegreeSequence loop
// over it for Phase 1's Random(X), mcmc.GraphState walks it in Phase 2 and
// checkpoints its slots.
type Swaps struct {
	edges   []Edge // normalized (Src < Dst), no duplicates
	present *edgeSet
}

// NewSwaps copies edges, keeping their slot order. Every edge must be
// normalized (Src < Dst, so no self-loop) and appear once.
func NewSwaps(edges []Edge) (*Swaps, error) {
	s := &Swaps{edges: slices.Clone(edges), present: newEdgeSet(len(edges))}
	for _, e := range edges {
		if e.Src >= e.Dst {
			return nil, fmt.Errorf("graph: edge (%d,%d) is not normalized", e.Src, e.Dst)
		}
		k := packEdge(e.Src, e.Dst)
		if s.present.has(k) {
			return nil, fmt.Errorf("graph: edge (%d,%d) is a duplicate", e.Src, e.Dst)
		}
		s.present.add(k)
	}
	return s, nil
}

// Edges returns a copy of the edges in slot order.
func (s *Swaps) Edges() []Edge { return slices.Clone(s.edges) }

// Has reports whether {u, v} is present.
func (s *Swaps) Has(u, v Node) bool { return s.present.has(packEdge(u, v)) }

// Propose draws a swap: two slots, then a coin that flips the second
// edge's orientation so that both re-pairings of a pair are reachable and
// the walk is symmetric. ok is false — after the same three draws, or
// none when there are fewer than two edges — when the draw names one slot
// twice, the edges share an endpoint, or a replacement edge exists.
func (s *Swaps) Propose(rng *rand.Rand) (sw Swap, ok bool) {
	if len(s.edges) < 2 {
		return Swap{}, false
	}
	i := rng.Intn(len(s.edges))
	j := rng.Intn(len(s.edges))
	if i == j {
		return Swap{}, false
	}
	a, b := s.edges[i].Src, s.edges[i].Dst
	c, d := s.edges[j].Src, s.edges[j].Dst
	if rng.Intn(2) == 0 {
		c, d = d, c
	}
	if a == d || c == b || a == c || b == d {
		return Swap{}, false
	}
	if s.Has(a, d) || s.Has(c, b) {
		return Swap{}, false
	}
	return Swap{I: i, J: j, A: a, B: b, C: c, D: d}, true
}

// Apply performs a swap Propose returned for the current edge set.
func (s *Swaps) Apply(sw Swap) {
	s.replace(sw.I, sw.A, sw.B, sw.D)
	s.replace(sw.J, sw.C, sw.D, sw.B)
}

// Revert undoes the swap most recently applied.
func (s *Swaps) Revert(sw Swap) {
	s.replace(sw.I, sw.A, sw.D, sw.B)
	s.replace(sw.J, sw.C, sw.B, sw.D)
}

// replace turns the edge {u,v} held at slot into {u,w}.
func (s *Swaps) replace(slot int, u, v, w Node) {
	s.present.remove(packEdge(u, v))
	s.present.add(packEdge(u, w))
	s.edges[slot] = normEdge(u, w)
}

// mix attempts that many swaps — the paper's Random(X) construction — and
// returns the number that succeeded.
func (s *Swaps) mix(attempts int, rng *rand.Rand) int {
	done := 0
	for i := 0; i < attempts; i++ {
		if sw, ok := s.Propose(rng); ok {
			s.Apply(sw)
			done++
		}
	}
	return done
}

// Rewire attempts that many swaps on g and returns the number that
// succeeded. The loop runs over a Swaps of g's edge list, none of g's
// nested maps, and g receives the net difference once, after the last
// attempt.
func Rewire(g *Graph, attempts int, rng *rand.Rand) int {
	before := g.EdgeList()
	s, err := NewSwaps(before)
	if err != nil {
		panic(err) // EdgeList is normalized and duplicate-free
	}
	done := s.mix(attempts, rng)
	for _, e := range before {
		if !s.Has(e.Src, e.Dst) {
			g.RemoveEdge(e.Src, e.Dst)
		}
	}
	for _, e := range s.edges {
		g.AddEdge(e.Src, e.Dst) // a no-op for the edges that survived
	}
	return done
}

func normEdge(u, v Node) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// packEdge is the undirected edge {u, v} as one word, smaller endpoint in
// the high half. Never zero: a simple graph has no edge {0, 0}.
func packEdge(u, v Node) uint64 {
	e := normEdge(u, v)
	return uint64(uint32(e.Src))<<32 | uint64(uint32(e.Dst))
}

// edgeSet is the set of packed edges under Swaps: open addressing with linear
// probing over a power-of-two table at most half full, zero marking an
// empty slot, and backward-shift deletion so that a walk of removes and
// adds at constant size leaves no tombstones behind.
type edgeSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
}

func newEdgeSet(n int) *edgeSet {
	bits := uint(4)
	for 1<<bits < 2*n {
		bits++
	}
	return &edgeSet{slots: make([]uint64, 1<<bits), shift: 64 - bits}
}

// home is the slot a key hashes to (Fibonacci hashing: the top bits of a
// multiplication by 2^64/phi).
func (s *edgeSet) home(k uint64) int { return int(k * 0x9e3779b97f4a7c15 >> s.shift) }

func (s *edgeSet) has(k uint64) bool {
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// add inserts a key that is not in the set.
func (s *edgeSet) add(k uint64) {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = k
}

// remove deletes a key that is in the set, moving later members of its
// probe run back so that every key stays reachable from its home slot.
func (s *edgeSet) remove(k uint64) {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != k {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// slots[j] may fill the hole at i unless its home lies in (i, j].
		if h := s.home(s.slots[j]); (j-h)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}
