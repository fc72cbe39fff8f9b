package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// FromDegreeSequence constructs a simple graph realizing the given degree
// sequence via the Havel-Hakimi algorithm, then randomizes it with
// degree-preserving edge swaps so the result is not the deterministic
// Havel-Hakimi extremal graph. Returns an error if the sequence is not
// graphical.
func FromDegreeSequence(degrees []int, swapsPerEdge int, rng *rand.Rand) (*Graph, error) {
	type vd struct {
		v Node
		d int
	}
	rem := make([]vd, len(degrees))
	var sum int
	for i, d := range degrees {
		if d < 0 {
			return nil, fmt.Errorf("graph: negative degree %d", d)
		}
		rem[i] = vd{Node(i), d}
		sum += d
	}
	if sum%2 != 0 {
		return nil, errors.New("graph: degree sum must be even")
	}
	g := New()
	for i := range degrees {
		g.AddNode(Node(i))
	}
	for {
		// slices.SortFunc runs the same pdqsort as sort.Slice did here, so
		// ties land in the same (unstable) permutation and the constructed
		// graph is unchanged (TestFromDegreeSequencePinned), without
		// sort.Slice's reflection-based swapper on every vertex's re-sort.
		slices.SortFunc(rem, func(a, b vd) int { return cmp.Compare(b.d, a.d) })
		for len(rem) > 0 && rem[len(rem)-1].d == 0 {
			rem = rem[:len(rem)-1]
		}
		if len(rem) == 0 {
			break
		}
		head := rem[0]
		if head.d > len(rem)-1 {
			return nil, errors.New("graph: degree sequence is not graphical")
		}
		for i := 1; i <= head.d; i++ {
			g.AddEdge(head.v, rem[i].v)
			rem[i].d--
			if rem[i].d < 0 {
				return nil, errors.New("graph: degree sequence is not graphical")
			}
		}
		rem[0].d = 0
	}
	Rewire(g, swapsPerEdge*g.NumEdges(), rng)
	return g, nil
}
