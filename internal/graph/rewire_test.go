package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// rewireReference is the former Rewire, kept as the oracle: every
// adjacency test and every accepted swap goes through g's nested maps.
func rewireReference(g *Graph, attempts int, rng *rand.Rand) int {
	edges := g.EdgeList()
	if len(edges) < 2 {
		return 0
	}
	done := 0
	for i := 0; i < attempts; i++ {
		ei := rng.Intn(len(edges))
		ej := rng.Intn(len(edges))
		if ei == ej {
			continue
		}
		a, b := edges[ei].Src, edges[ei].Dst
		c, d := edges[ej].Src, edges[ej].Dst
		if rng.Intn(2) == 0 {
			c, d = d, c
		}
		if a == d || c == b || a == c || b == d {
			continue
		}
		if g.HasEdge(a, d) || g.HasEdge(c, b) {
			continue
		}
		g.RemoveEdge(a, b)
		g.RemoveEdge(c, d)
		g.AddEdge(a, d)
		g.AddEdge(c, b)
		edges[ei] = normEdge(a, d)
		edges[ej] = normEdge(c, b)
		done++
	}
	return done
}

// TestRewireMatchesReference: for the same graph and rng state, Rewire
// accepts the same swaps as the reference loop (same count, same edge
// list), consumes the same rng draws, and changes g itself — isolated
// vertices included — rather than a copy.
func TestRewireMatchesReference(t *testing.T) {
	build := func(t *testing.T, name string) *Graph {
		var g *Graph
		var err error
		switch name {
		case "holme-kim":
			g, err = HolmeKim(600, 4, 0.7, rand.New(rand.NewSource(1)))
		case "dense": // most swaps rejected: the replacement edge exists
			g, err = ErdosRenyi(40, 600, rand.New(rand.NewSource(2)))
		case "sparse":
			g, err = ErdosRenyi(3000, 2500, rand.New(rand.NewSource(3)))
		case "star": // no swap keeps the graph simple
			g = New()
			for v := Node(1); v < 30; v++ {
				g.AddEdge(0, v)
			}
		case "single-edge":
			g = New()
			g.AddEdge(4, 9)
		case "wide-ids": // packing must not confuse the halves or the sign
			g = New()
			rng := rand.New(rand.NewSource(4))
			for g.NumEdges() < 400 {
				g.AddEdge(Node(rng.Int31n(60))-30, Node(rng.Int31n(60))<<24)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		// Isolated vertices are part of the graph and must survive.
		g.AddNode(1 << 30)
		g.AddNode(-7)
		return g
	}
	for _, name := range []string{"holme-kim", "dense", "sparse", "star", "single-edge", "wide-ids"} {
		for _, attempts := range []int{0, 1, 7, 5000, 60000} {
			want, got := build(t, name), build(t, name)
			wantRng := rand.New(rand.NewSource(int64(attempts) + 17))
			gotRng := rand.New(rand.NewSource(int64(attempts) + 17))
			wantDone := rewireReference(want, attempts, wantRng)
			gotDone := Rewire(got, attempts, gotRng)
			if gotDone != wantDone {
				t.Errorf("%s/%d: %d swaps, reference %d", name, attempts, gotDone, wantDone)
			}
			if g, w := edgeListHash(got), edgeListHash(want); g != w {
				t.Errorf("%s/%d: edge-list hash %#x, reference %#x", name, attempts, g, w)
			}
			if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
				t.Errorf("%s/%d: rng diverged after the call", name, attempts)
			}
			if !slices.Equal(got.Nodes(), want.Nodes()) {
				t.Errorf("%s/%d: node sets differ", name, attempts)
			}
			if got.NumEdges() != want.NumEdges() || len(got.EdgeList()) != got.NumEdges() {
				t.Errorf("%s/%d: NumEdges %d, list %d, reference %d", name, attempts, got.NumEdges(), len(got.EdgeList()), want.NumEdges())
			}
			for _, e := range got.EdgeList() {
				if !got.HasEdge(e.Dst, e.Src) {
					t.Fatalf("%s/%d: adjacency not symmetric at %v", name, attempts, e)
				}
			}
		}
	}
}

// TestEdgeSetMatchesMap drives the open-addressing set and a Go map with
// the same adds and removes at near-constant size (Rewire's pattern) on
// keys that collide heavily, checking membership of present and removed
// keys after every step.
func TestEdgeSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const size = 300
	key := func() uint64 { return packEdge(Node(rng.Intn(40)), Node(40+rng.Intn(40))) }
	set := newEdgeSet(size)
	ref := make(map[uint64]bool)
	var members, removed []uint64
	for len(members) < size {
		if k := key(); !ref[k] {
			ref[k] = true
			set.add(k)
			members = append(members, k)
		}
	}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(members))
		set.remove(members[i])
		delete(ref, members[i])
		removed = append(removed, members[i])
		k := key()
		for ref[k] {
			k = key()
		}
		ref[k] = true
		set.add(k)
		members[i] = k
		for _, k := range []uint64{members[rng.Intn(size)], removed[rng.Intn(len(removed))], key()} {
			if set.has(k) != ref[k] {
				t.Fatalf("step %d: has(%#x) = %v, map says %v", step, k, set.has(k), ref[k])
			}
		}
	}
	for _, k := range members {
		if !set.has(k) {
			t.Fatalf("member %#x lost", k)
		}
	}
}
