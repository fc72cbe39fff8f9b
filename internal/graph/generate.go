package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Generators for the synthetic graphs used across the experiments. All
// randomness flows through the supplied *rand.Rand for reproducibility.

// ErdosRenyi samples a uniform random simple graph with n vertices and m
// distinct edges (the G(n, m) model).
func ErdosRenyi(n, m int, rng *rand.Rand) (*Graph, error) {
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		return nil, fmt.Errorf("graph: %d edges exceed the %d possible on %d nodes", m, maxEdges, n)
	}
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(Node(i))
	}
	for g.NumEdges() < m {
		u := Node(rng.Intn(n))
		v := Node(rng.Intn(n))
		g.AddEdge(u, v)
	}
	return g, nil
}

// BarabasiAlbert grows a preferential-attachment graph: n vertices, each
// new vertex attaching mPerNode edges to existing vertices chosen with
// probability proportional to degree^alpha.
//
// alpha = 1 is the classic Barabasi-Albert model (dynamical exponent
// beta = 1/2); larger alpha concentrates attachment on hubs, raising the
// maximum degree at fixed n and m. The Table 3 sweep maps the paper's
// beta in {0.5..0.7} to alpha = 2*beta (see DESIGN.md substitutions).
func BarabasiAlbert(n, mPerNode int, alpha float64, rng *rand.Rand) (*Graph, error) {
	if mPerNode < 1 || n <= mPerNode {
		return nil, errors.New("graph: BarabasiAlbert requires 1 <= mPerNode < n")
	}
	g := New()
	// Seed with a (mPerNode+1)-clique so early attachment has targets.
	seed := mPerNode + 1
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			g.AddEdge(Node(i), Node(j))
		}
	}
	// Fenwick tree over attachment weights degree^alpha: O(log n) weighted
	// sampling and O(log n) updates, which stays fast even for strongly
	// superlinear kernels where rejection sampling stalls on the hubs.
	degrees := make([]int, n)
	fw := newFenwick(n)
	kernel := func(d int) float64 { return math.Pow(float64(d), alpha) }
	for i := 0; i < seed; i++ {
		degrees[i] = seed - 1
		fw.set(i, kernel(seed-1))
	}
	for i := seed; i < n; i++ {
		chosen := make(map[Node]struct{}, mPerNode)
		// Track weights zeroed to enforce sampling without replacement.
		removed := make(map[int]float64, mPerNode)
		for len(chosen) < mPerNode {
			t := fw.sample(rng)
			if t < 0 {
				break // no remaining mass (tiny graphs)
			}
			chosen[Node(t)] = struct{}{}
			removed[t] = fw.get(t)
			fw.set(t, 0)
		}
		// Restore and bump the chosen targets' weights.
		for t, w := range removed {
			fw.set(t, w)
		}
		for t := range chosen {
			g.AddEdge(Node(i), t)
			degrees[t]++
			fw.set(int(t), kernel(degrees[t]))
		}
		degrees[i] = mPerNode
		fw.set(i, kernel(mPerNode))
	}
	return g, nil
}

// fenwick is a Fenwick (binary indexed) tree over float64 weights
// supporting point assignment, prefix sums, and weighted sampling.
type fenwick struct {
	tree []float64
	vals []float64
}

func newFenwick(n int) *fenwick {
	return &fenwick{tree: make([]float64, n+1), vals: make([]float64, n)}
}

func (f *fenwick) get(i int) float64 { return f.vals[i] }

func (f *fenwick) set(i int, w float64) {
	delta := w - f.vals[i]
	f.vals[i] = w
	for j := i + 1; j < len(f.tree); j += j & (-j) {
		f.tree[j] += delta
	}
}

func (f *fenwick) total() float64 {
	var s float64
	n := len(f.tree) - 1
	for j := n; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// sample draws index i with probability vals[i] / total, or -1 when the
// total mass is non-positive.
func (f *fenwick) sample(rng *rand.Rand) int {
	total := f.total()
	if total <= 0 {
		return -1
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64() // target must be strictly positive
	}
	target := u * total
	// Find the smallest idx with prefix(idx+1) >= target; because target
	// is strictly positive and at most total, vals[idx] > 0 is guaranteed.
	idx := 0
	mask := 1
	for mask*2 < len(f.tree) {
		mask *= 2
	}
	for ; mask > 0; mask /= 2 {
		next := idx + mask
		if next < len(f.tree) && f.tree[next] < target {
			target -= f.tree[next]
			idx = next
		}
	}
	if idx >= len(f.vals) {
		idx = len(f.vals) - 1
	}
	return idx
}

// HolmeKim grows a clustered power-law graph (Holme & Kim's preferential
// attachment with triad formation): each new vertex makes mPerNode links;
// after each preferential link, with probability pTriad the next link
// closes a triangle by attaching to a random neighbor of the previous
// target. High pTriad produces the triangle-rich, mildly disassortative
// profile of dense social graphs (the Caltech / Epinions stand-ins).
func HolmeKim(n, mPerNode int, pTriad float64, rng *rand.Rand) (*Graph, error) {
	if mPerNode < 1 || n <= mPerNode {
		return nil, errors.New("graph: HolmeKim requires 1 <= mPerNode < n")
	}
	if pTriad < 0 || pTriad > 1 {
		return nil, errors.New("graph: HolmeKim requires pTriad in [0,1]")
	}
	g := New()
	// Repeated-endpoint list for O(1) preferential sampling, plus local
	// adjacency slices so random neighbor choice is deterministic under a
	// fixed seed (map iteration order is not).
	var stubs []Node
	nbrs := make([][]Node, n)
	link := func(u, v Node) bool {
		if !g.AddEdge(u, v) {
			return false
		}
		stubs = append(stubs, u, v)
		nbrs[u] = append(nbrs[u], v)
		nbrs[v] = append(nbrs[v], u)
		return true
	}
	seed := mPerNode + 1
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			link(Node(i), Node(j))
		}
	}
	for i := seed; i < n; i++ {
		u := Node(i)
		var prev Node = -1
		added := 0
		guard := 0
		for added < mPerNode {
			guard++
			if guard > 200*mPerNode {
				break // pathological local structure; accept fewer links
			}
			var target Node
			if prev >= 0 && rng.Float64() < pTriad && len(nbrs[prev]) > 0 {
				// Triad step: neighbor of the previous target.
				target = nbrs[prev][rng.Intn(len(nbrs[prev]))]
			} else {
				target = stubs[rng.Intn(len(stubs))]
			}
			if link(u, target) {
				prev = target
				added++
			}
		}
	}
	return g, nil
}

// CollaborationConfig parameterizes the overlapping-clique collaboration
// model standing in for the SNAP co-authorship graphs (see DESIGN.md).
type CollaborationConfig struct {
	Authors      int     // target number of vertices
	Papers       int     // number of cliques to generate
	MeanAuthors  float64 // mean clique size (>= 2)
	MaxAuthors   int     // clique size cap
	PrefAttach   float64 // probability an author slot reuses an active author
	NewAuthorCap int     // stop introducing authors beyond this many (0 = Authors)
}

// Collaboration generates a co-authorship-style graph: "papers" are
// cliques whose sizes follow a geometric distribution with the given mean.
// Each paper is either a "veteran" paper (probability PrefAttach) whose
// authors are all drawn preferentially from previously active authors, or
// a "newcomer" paper introducing fresh authors. Deciding per paper rather
// than per author slot keeps degrees correlated within cliques, which —
// together with the cliques themselves — yields the high triangle density
// and positive degree assortativity characteristic of collaboration
// networks (paper Table 1's CA-* rows).
func Collaboration(cfg CollaborationConfig, rng *rand.Rand) (*Graph, error) {
	if cfg.Authors < 3 || cfg.Papers < 1 {
		return nil, errors.New("graph: Collaboration requires Authors >= 3, Papers >= 1")
	}
	if cfg.MeanAuthors < 2 {
		return nil, errors.New("graph: Collaboration requires MeanAuthors >= 2")
	}
	if cfg.MaxAuthors < 2 {
		cfg.MaxAuthors = 2
	}
	cap := cfg.NewAuthorCap
	if cap <= 0 {
		cap = cfg.Authors
	}
	g := New()
	var active []Node // repeated by paper count, for preferential reuse
	nextAuthor := Node(0)
	// Geometric clique-size: P(k) ∝ (1-p)^(k-2), mean = 2 + (1-p)/p.
	p := 1 / (cfg.MeanAuthors - 1)
	if p > 1 {
		p = 1
	}
	sampleSize := func() int {
		k := 2
		for k < cfg.MaxAuthors && rng.Float64() > p {
			k++
		}
		return k
	}
	for paper := 0; paper < cfg.Papers; paper++ {
		k := sampleSize()
		veteran := len(active) >= k &&
			(int(nextAuthor) >= cap || rng.Float64() < cfg.PrefAttach)
		seen := make(map[Node]struct{}, k)
		list := make([]Node, 0, k) // insertion order, for determinism
		guard := 0
		for len(list) < k {
			var a Node
			if veteran {
				a = active[rng.Intn(len(active))]
				guard++
				if guard > 100*k {
					break // tiny active pool; accept a smaller paper
				}
			} else {
				a = nextAuthor
				nextAuthor++
			}
			if _, dup := seen[a]; dup {
				continue
			}
			seen[a] = struct{}{}
			list = append(list, a)
		}
		for _, a := range list {
			active = append(active, a)
		}
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				g.AddEdge(list[i], list[j])
			}
		}
	}
	// Top up isolated authors so NumNodes is close to the target.
	for int(nextAuthor) < cfg.Authors {
		g.AddNode(nextAuthor)
		nextAuthor++
	}
	return g, nil
}

// ErrNotGraphical is wrapped by the error FromDegreeSequence returns for a
// sequence no simple graph realizes: an odd degree sum, or a vertex left
// with fewer partners than its degree.
var ErrNotGraphical = errors.New("graph: degree sequence is not graphical")

// FromDegreeSequence constructs a simple graph on vertices 0..len(degrees)-1
// realizing the given degree sequence via the Havel-Hakimi algorithm, then
// randomizes it with swapsPerEdge degree-preserving swap attempts per edge
// (the paper's Random(X)) so the result is not the deterministic
// Havel-Hakimi extremal graph. The error wraps ErrNotGraphical when no
// simple graph has these degrees.
//
// The graph is a pure function of (degrees, swapsPerEdge, the rng's
// state): Havel-Hakimi wires under one total order (see havelHakimi), the
// swaps run over its edges in EdgeList order, and every fixed-seed fit
// starts from the result (TestFromDegreeSequencePinned).
func FromDegreeSequence(degrees []int, swapsPerEdge int, rng *rand.Rand) (*Graph, error) {
	edges, err := havelHakimi(degrees)
	if err != nil {
		return nil, err
	}
	sortEdges(edges)
	s, err := NewSwaps(edges)
	if err != nil {
		panic(err) // havelHakimi's edges are normalized and duplicate-free
	}
	s.mix(swapsPerEdge*len(edges), rng)
	g := New()
	for v := range degrees {
		g.AddNode(Node(v))
	}
	for _, e := range s.edges {
		g.AddEdge(e.Src, e.Dst)
	}
	return g, nil
}

// havelHakimi returns the edges, each normalized, of the Havel-Hakimi
// realization of degrees under the total order (residual degree
// descending, vertex id ascending): the first vertex in that order is
// wired to the d that follow it, d its residual degree, until every
// residual is zero. A binary heap holds the vertices with a positive
// residual, so a round costs O(d log V) — O((V+E) log V) in all, with no
// allocation sized by a degree's value — and the tie rule is the heap's
// comparison, not a sort routine's internals. havelHakimiReference
// (reference_test.go) is the same order as one sort per round.
func havelHakimi(degrees []int) ([]Edge, error) {
	h := make(residualHeap, 0, len(degrees))
	odd := false
	for v, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("graph: negative degree %d", d)
		}
		odd = odd != (d%2 == 1)
		if d > 0 {
			h = append(h, residual{Node(v), d})
		}
	}
	if odd {
		return nil, fmt.Errorf("%w: the degree sum is odd", ErrNotGraphical)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var edges []Edge
	var partners []residual
	for len(h) > 0 {
		head := h.pop()
		if head.d > len(h) {
			return nil, fmt.Errorf("%w: vertex %d needs %d more neighbors, %d vertices remain",
				ErrNotGraphical, head.v, head.d, len(h))
		}
		partners = partners[:0]
		for i := 0; i < head.d; i++ {
			partners = append(partners, h.pop())
		}
		for _, p := range partners {
			edges = append(edges, normEdge(head.v, p.v))
			if p.d > 1 {
				h.push(residual{p.v, p.d - 1})
			}
		}
	}
	return edges, nil
}

// residual is a vertex and the degree it still has to be given.
type residual struct {
	v Node
	d int
}

// before is havelHakimi's total order.
func (a residual) before(b residual) bool {
	return a.d > b.d || a.d == b.d && a.v < b.v
}

// residualHeap is a binary heap with the first residual in before's order
// at index 0.
type residualHeap []residual

func (h *residualHeap) push(r residual) {
	s := append(*h, r)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !r.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = r
	*h = s
}

func (h *residualHeap) pop() residual {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
	return top
}

// down restores the heap below index i; a no-op past the end.
func (h residualHeap) down(i int) {
	if i >= len(h) {
		return
	}
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
