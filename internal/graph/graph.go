// Package graph provides the graph substrate for wPINQ's experiments:
// an undirected simple-graph type, exact statistics (triangles, 4-cycles,
// assortativity, degree moments), random-graph generators spanning the
// paper's datasets, and conversions to weighted edge datasets.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Node identifies a vertex. 32 bits keeps edge records compact: the
// experiments store millions of 2- and 3-node records in operator state.
type Node = int32

// Edge is a directed edge record as used by the wPINQ graph queries. The
// paper's pipelines operate on symmetric directed edge sets ("edges" holds
// both (a,b) and (b,a) at weight 1.0).
type Edge struct {
	Src, Dst Node
}

// Reverse returns the edge with endpoints swapped.
func (e Edge) Reverse() Edge { return Edge{e.Dst, e.Src} }

// Graph is an undirected simple graph (no self-loops, no multi-edges)
// backed by adjacency sets. The zero value is not usable; call New.
type Graph struct {
	adj      map[Node]map[Node]struct{}
	numEdges int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[Node]map[Node]struct{})}
}

// AddNode ensures u exists (possibly isolated).
func (g *Graph) AddNode(u Node) {
	if _, ok := g.adj[u]; !ok {
		g.adj[u] = make(map[Node]struct{})
	}
}

// AddEdge inserts the undirected edge {u, v}. It reports whether the edge
// was added: self-loops and duplicate edges are rejected.
func (g *Graph) AddEdge(u, v Node) bool {
	if u == v {
		return false
	}
	g.AddNode(u)
	g.AddNode(v)
	if _, ok := g.adj[u][v]; ok {
		return false
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.numEdges++
	return true
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether it
// existed.
func (g *Graph) RemoveEdge(u, v Node) bool {
	if _, ok := g.adj[u][v]; !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.numEdges--
	return true
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v Node) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns the degree of u (0 if absent).
func (g *Graph) Degree(u Node) int { return len(g.adj[u]) }

// NumNodes returns the number of vertices (including isolated ones).
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Nodes returns all vertices in ascending order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, len(g.adj))
	for u := range g.adj {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// Isolated returns the degree-zero vertices in ascending order.
func (g *Graph) Isolated() []Node {
	var out []Node
	for u, nbrs := range g.adj {
		if len(nbrs) == 0 {
			out = append(out, u)
		}
	}
	slices.Sort(out)
	return out
}

// Neighbors calls f for every neighbor of u.
func (g *Graph) Neighbors(u Node, f func(v Node)) {
	for v := range g.adj[u] {
		f(v)
	}
}

// EdgeList returns every undirected edge once, as (min, max) pairs in
// deterministic order.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	sortEdges(out)
	return out
}

// sortEdges puts edges in EdgeList order: by Src, then by Dst.
func sortEdges(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
}

// Ranked returns g with every node id replaced by its rank among g's
// ids: the k-th smallest becomes k, so the ids become 0, …, n−1 in the
// order they had. Edges, isolated vertices, degrees and EdgeList's order
// carry over. It returns g itself when the ids already are 0, …, n−1.
func (g *Graph) Ranked() *Graph {
	n := len(g.adj)
	dense := true
	for u := range g.adj {
		if u < 0 || int(u) >= n {
			dense = false
			break
		}
	}
	if dense {
		return g
	}
	nodes := g.Nodes()
	rank := make(map[Node]Node, n)
	for i, u := range nodes {
		rank[u] = Node(i)
	}
	r := &Graph{adj: make(map[Node]map[Node]struct{}, n), numEdges: g.numEdges}
	for i, u := range nodes {
		nbrs := make(map[Node]struct{}, len(g.adj[u]))
		for v := range g.adj[u] {
			nbrs[rank[v]] = struct{}{}
		}
		r.adj[Node(i)] = nbrs
	}
	return r
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New()
	for u, nbrs := range g.adj {
		c.AddNode(u)
		cn := c.adj[u]
		for v := range nbrs {
			cn[v] = struct{}{}
		}
	}
	c.numEdges = g.numEdges
	return c
}

// Degrees returns the degree of every vertex.
func (g *Graph) Degrees() map[Node]int {
	out := make(map[Node]int, len(g.adj))
	for u, nbrs := range g.adj {
		out[u] = len(nbrs)
	}
	return out
}

// DegreeSequence returns vertex degrees sorted non-increasing — the object
// the paper's Section 3.1 measures.
func (g *Graph) DegreeSequence() []int {
	out := make([]int, 0, len(g.adj))
	for _, nbrs := range g.adj {
		out = append(out, len(nbrs))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// MaxDegree returns the largest vertex degree (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	m := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > m {
			m = len(nbrs)
		}
	}
	return m
}

// SumDegreeSquares returns sum_v d_v^2, the quantity governing the memory
// and time of the incremental triangle pipelines (paper Section 5.3).
func (g *Graph) SumDegreeSquares() int64 {
	var s int64
	for _, nbrs := range g.adj {
		d := int64(len(nbrs))
		s += d * d
	}
	return s
}

// Triangles returns the exact number of triangles, via neighborhood
// intersection over edges: sum_{(u,v) in E} |N(u) ∩ N(v)| / 3.
func (g *Graph) Triangles() int64 {
	var total int64
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u >= v {
				continue
			}
			// Iterate the smaller neighborhood.
			a, b := g.adj[u], g.adj[v]
			if len(b) < len(a) {
				a, b = b, a
			}
			for w := range a {
				if _, ok := b[w]; ok {
					total++
				}
			}
		}
	}
	// Each triangle counted once per edge (3 edges), and the u<v guard
	// halves nothing here since each undirected edge visited once.
	return total / 3
}

// TrianglesByDegree returns, for each sorted degree triple (d1<=d2<=d3),
// the number of triangles whose vertices have those degrees: the ground
// truth for the TbD query (paper Section 3.3).
func (g *Graph) TrianglesByDegree() map[[3]int]int64 {
	out := make(map[[3]int]int64)
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u >= v {
				continue
			}
			a, b := g.adj[u], g.adj[v]
			if len(b) < len(a) {
				a, b = b, a
			}
			for w := range a {
				if _, ok := b[w]; !ok {
					continue
				}
				// Count each triangle once: at its smallest vertex pair.
				if w <= v || w <= u {
					continue
				}
				tri := [3]int{g.Degree(u), g.Degree(v), g.Degree(w)}
				sort.Ints(tri[:])
				out[tri]++
			}
		}
	}
	return out
}

// FourCycles returns the exact number of simple 4-cycles, via wedge
// counting: C4 = (1/2) * sum over vertex pairs of C(cn, 2) where cn is the
// number of common neighbors. Memory is O(#wedges); intended for the small
// and medium graphs used in tests.
func (g *Graph) FourCycles() int64 {
	wedges := make(map[[2]Node]int64)
	for _, nbrs := range g.adj {
		vs := make([]Node, 0, len(nbrs))
		for v := range nbrs {
			vs = append(vs, v)
		}
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				a, b := vs[i], vs[j]
				if a > b {
					a, b = b, a
				}
				wedges[[2]Node{a, b}]++
			}
		}
	}
	var total int64
	for _, c := range wedges {
		total += c * (c - 1) / 2
	}
	return total / 2
}

// Assortativity returns the degree assortativity coefficient r (Pearson
// correlation of endpoint degrees over edges), the statistic reported in
// the paper's Table 1. Returns 0 for degree-regular or empty graphs, where
// the correlation is undefined.
func (g *Graph) Assortativity() float64 {
	var m float64
	var sumJK, sumJplusK, sumJ2plusK2 float64
	for u, nbrs := range g.adj {
		du := float64(len(nbrs))
		for v := range nbrs {
			if u >= v {
				continue
			}
			dv := float64(len(g.adj[v]))
			m++
			sumJK += du * dv
			sumJplusK += (du + dv) / 2
			sumJ2plusK2 += (du*du + dv*dv) / 2
		}
	}
	if m == 0 {
		return 0
	}
	num := sumJK/m - (sumJplusK/m)*(sumJplusK/m)
	den := sumJ2plusK2/m - (sumJplusK/m)*(sumJplusK/m)
	if math.Abs(den) < 1e-15 {
		return 0
	}
	return num / den
}

// GlobalClustering returns the global clustering coefficient
// 3*triangles / #wedges (0 when the graph has no wedges).
func (g *Graph) GlobalClustering() float64 {
	var wedges int64
	for _, nbrs := range g.adj {
		d := int64(len(nbrs))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(g.Triangles()) / float64(wedges)
}

// Stats bundles the Table 1 / Table 3 statistics of a graph.
type Stats struct {
	Nodes         int
	DirectedEdges int // 2x undirected edges, matching the paper's tables
	MaxDegree     int
	Triangles     int64
	Assortativity float64
	SumDegSquares int64
}

// ComputeStats evaluates the Table 1 statistics of g.
func ComputeStats(g *Graph) Stats {
	return Stats{
		Nodes:         g.NumNodes(),
		DirectedEdges: 2 * g.NumEdges(),
		MaxDegree:     g.MaxDegree(),
		Triangles:     g.Triangles(),
		Assortativity: g.Assortativity(),
		SumDegSquares: g.SumDegreeSquares(),
	}
}

// String renders stats in the layout of the paper's Table 1 rows.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d dmax=%d triangles=%d r=%.2f sumd2=%d",
		s.Nodes, s.DirectedEdges, s.MaxDegree, s.Triangles, s.Assortativity, s.SumDegSquares)
}
