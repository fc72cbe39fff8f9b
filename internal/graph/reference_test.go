package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// havelHakimiReference is Havel-Hakimi as the definition reads: sort the
// vertices still owed a neighbor by (residual degree descending, vertex id
// ascending), wire the first to the d after it, repeat. One sort per
// vertex makes it O(V² log V); havelHakimi must return the same edges.
func havelHakimiReference(degrees []int) ([]Edge, error) {
	type vd struct {
		v Node
		d int
	}
	rem := make([]vd, 0, len(degrees))
	odd := false
	for i, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("graph: negative degree %d", d)
		}
		odd = odd != (d%2 == 1)
		if d > 0 {
			rem = append(rem, vd{Node(i), d})
		}
	}
	if odd {
		return nil, fmt.Errorf("%w: the degree sum is odd", ErrNotGraphical)
	}
	var edges []Edge
	for len(rem) > 0 {
		slices.SortFunc(rem, func(a, b vd) int {
			return cmp.Or(cmp.Compare(b.d, a.d), cmp.Compare(a.v, b.v))
		})
		for len(rem) > 0 && rem[len(rem)-1].d == 0 {
			rem = rem[:len(rem)-1]
		}
		if len(rem) == 0 {
			break
		}
		head := rem[0]
		if head.d > len(rem)-1 {
			return nil, fmt.Errorf("%w: vertex %d", ErrNotGraphical, head.v)
		}
		for i := 1; i <= head.d; i++ {
			edges = append(edges, normEdge(head.v, rem[i].v))
			rem[i].d--
		}
		rem[0].d = 0
	}
	sortEdges(edges)
	return edges, nil
}

// degreesByID returns g's degrees indexed by vertex id 0..n-1.
func degreesByID(g *Graph, n int) []int {
	out := make([]int, n)
	for v := range out {
		out[v] = g.Degree(Node(v))
	}
	return out
}

// checkAgainstReference fails unless FromDegreeSequence with no swaps
// refuses degrees exactly when the reference does and otherwise builds the
// reference's graph, edge for edge, on len(degrees) vertices — and, with
// swaps, the graph Rewire makes of the reference's under the same rng,
// each vertex still at its degree.
func checkAgainstReference(t *testing.T, name string, degrees []int) (graphical bool) {
	t.Helper()
	want, wantErr := havelHakimiReference(degrees)
	g, err := FromDegreeSequence(degrees, 0, rand.New(rand.NewSource(1)))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, err, wantErr)
	}
	if err != nil {
		if errors.Is(err, ErrNotGraphical) != errors.Is(wantErr, ErrNotGraphical) {
			t.Fatalf("%s: error %v, reference error %v", name, err, wantErr)
		}
		return false
	}
	if g.NumNodes() != len(degrees) {
		t.Fatalf("%s: %d nodes, want %d", name, g.NumNodes(), len(degrees))
	}
	if got := g.EdgeList(); !slices.Equal(got, want) {
		t.Fatalf("%s: edges differ from the reference's\n got  %v\n want %v", name, got, want)
	}
	mixed, err := FromDegreeSequence(degrees, 2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("%s: with swaps: %v", name, err)
	}
	// A Graph is simple by construction, so exact degrees are all that is
	// left to ask of either.
	for _, h := range []*Graph{g, mixed} {
		if got := degreesByID(h, len(degrees)); !slices.Equal(got, degrees) {
			t.Fatalf("%s: realized degrees %v, want %v", name, got, degrees)
		}
	}
	Rewire(g, 2*len(want), rand.New(rand.NewSource(2)))
	if !slices.Equal(mixed.EdgeList(), g.EdgeList()) {
		t.Fatalf("%s: mixing inside FromDegreeSequence differs from Rewire on its unmixed graph", name)
	}
	return true
}

func TestHavelHakimiMatchesReference(t *testing.T) {
	complete := make([]int, 9)
	for i := range complete {
		complete[i] = len(complete) - 1
	}
	for _, tc := range []struct {
		name      string
		degrees   []int
		graphical bool
	}{
		{"empty", nil, true},
		{"all-zero", make([]int, 7), true},
		{"single-vertex", []int{0}, true},
		{"single-vertex-loop", []int{2}, false},
		{"star", []int{1, 1, 6, 1, 1, 1, 1}, true},
		{"complete", complete, true},
		{"odd-sum", []int{1, 1, 1}, false},
		{"too-few-partners", []int{3, 1}, false},
		{"ties", []int{2, 2, 2, 2, 2, 2}, true},
		{"negative", []int{-1, 1}, false},
	} {
		if got := checkAgainstReference(t, tc.name, tc.degrees); got != tc.graphical {
			t.Errorf("%s: graphical = %v, want %v", tc.name, got, tc.graphical)
		}
	}

	rng := rand.New(rand.NewSource(28))
	graphical, refused := 0, 0
	for i := 0; i < 120; i++ {
		// Degrees of a generated graph, in vertex-id order (so not sorted)
		// and heavy with ties at the low end.
		n := 10 + rng.Intn(200)
		m := 1 + rng.Intn(min(5, n-1))
		var src *Graph
		var err error
		if i%2 == 0 {
			src, err = HolmeKim(n, m, 0.5, rng)
		} else {
			src, err = BarabasiAlbert(n, m, 1, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("generated #%d (n=%d m=%d)", i, n, m)
		if !checkAgainstReference(t, name, degreesByID(src, n)) {
			t.Fatalf("%s: a graph's own degrees refused", name)
		}
		graphical++
	}
	for i := 0; i < 120; i++ {
		// Uniform degrees: dense ones are rarely graphical, sparse ones
		// usually are when their sum is even.
		n := 1 + rng.Intn(40)
		top := 1 + rng.Intn(n+2)
		degrees := make([]int, n)
		for v := range degrees {
			degrees[v] = rng.Intn(top)
		}
		if checkAgainstReference(t, fmt.Sprintf("uniform #%d %v", i, degrees), degrees) {
			graphical++
		} else {
			refused++
		}
	}
	if graphical < 150 || refused < 30 {
		t.Errorf("%d graphical and %d refused sequences: the draw no longer covers both", graphical, refused)
	}
}
