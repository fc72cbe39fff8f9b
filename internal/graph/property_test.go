package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property tests over random graphs: structural invariants that must hold
// for any graph the generators can produce.

// randomGraph builds a small random graph from fuzz input.
func randomGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	if n < 2 {
		n = 2
	}
	n = n%40 + 2
	maxM := n * (n - 1) / 2
	m = m % (maxM + 1)
	g, err := ErdosRenyi(n, m, rng)
	if err != nil {
		panic(err)
	}
	return g
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed int64, n, m int) bool {
		g := randomGraph(seed, abs(n), abs(m))
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrianglesByDegreeSumsToTriangles(t *testing.T) {
	f := func(seed int64, n, m int) bool {
		g := randomGraph(seed, abs(n), abs(m))
		var total int64
		for _, c := range g.TrianglesByDegree() {
			total += c
		}
		return total == g.Triangles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAssortativityInRange(t *testing.T) {
	f := func(seed int64, n, m int) bool {
		g := randomGraph(seed, abs(n), abs(m))
		r := g.Assortativity()
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClusteringInRange(t *testing.T) {
	f := func(seed int64, n, m int) bool {
		g := randomGraph(seed, abs(n), abs(m))
		c := g.GlobalClustering()
		return c >= 0 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRewireInvariantsProperty(t *testing.T) {
	f := func(seed int64, n, m int) bool {
		g := randomGraph(seed, abs(n), abs(m))
		rng := rand.New(rand.NewSource(seed + 1))
		before := g.DegreeSequence()
		Rewire(g, 50, rng)
		after := g.DegreeSequence()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		// Still simple: re-adding any listed edge must fail.
		for _, e := range g.EdgeList() {
			if e.Src == e.Dst || g.AddEdge(e.Src, e.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricEdgesAlwaysSymmetric(t *testing.T) {
	f := func(seed int64, n, m int) bool {
		g := randomGraph(seed, abs(n), abs(m))
		d := SymmetricEdges(g)
		ok := true
		d.Range(func(e Edge, w float64) {
			if w != 1 || d.Weight(e.Reverse()) != 1 {
				ok = false
			}
		})
		return ok && d.Len() == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFromDegreeSequenceRealizesAnyGraphical(t *testing.T) {
	// Degree sequences harvested from actual graphs are graphical by
	// construction; FromDegreeSequence must realize them exactly.
	f := func(seed int64, n, m int) bool {
		g := randomGraph(seed, abs(n), abs(m))
		want := g.DegreeSequence()
		rng := rand.New(rand.NewSource(seed + 2))
		h, err := FromDegreeSequence(want, 1, rng)
		if err != nil {
			return false
		}
		got := h.DegreeSequence()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// And at the size of a release, vertex by vertex: 2·10⁴ vertices and
	// 10⁵ edges took the per-vertex re-sort seconds.
	const n = 20000
	src, err := HolmeKim(n, 5, 0.5, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	want := degreesByID(src, n)
	h, err := FromDegreeSequence(want, 1, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if got := degreesByID(h, n); !slices.Equal(got, want) || h.NumNodes() != n {
		t.Errorf("HolmeKim(%d, 5) degrees not realized exactly", n)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
