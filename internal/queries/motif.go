package queries

import (
	"errors"
	"fmt"
	"strings"

	"wpinq/internal/graph"
)

// Motif counting (paper Section 3.5): "the approach we have taken, forming
// paths and then repeatedly Joining them to tease out the appropriate
// graph structure, can be generalized to arbitrary connected subgraphs on
// k vertices."
//
// A Pattern is compiled into a join plan: starting from a single pattern
// edge, each remaining pattern edge either *extends* the partial embedding
// with a new vertex (a join against the edge dataset keyed on the anchored
// endpoint) or *closes* a cycle (a join keyed on both endpoints). The
// result is a weighted dataset with one Unit record whose weight is the
// data-dependent, rescaled count of embeddings. As the paper notes, such
// general queries "combine many records with varying weights", so the
// released number is interpreted through MCMC rather than a closed form;
// what matters is that it is nonzero exactly when the motif is present and
// grows with its prevalence.

// MaxPatternNodes bounds the pattern size (embedding records are
// fixed-size arrays).
const MaxPatternNodes = 6

// Pattern is a small connected undirected pattern graph on vertices
// 0..K-1.
type Pattern struct {
	K     int
	Edges [][2]int
}

// Common patterns.
var (
	// TrianglePattern is the 3-cycle.
	TrianglePattern = Pattern{K: 3, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}}
	// SquarePattern is the 4-cycle.
	SquarePattern = Pattern{K: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
	// PathPattern3 is the path on three vertices (a wedge).
	PathPattern3 = Pattern{K: 3, Edges: [][2]int{{0, 1}, {1, 2}}}
	// StarPattern4 is the 3-star (one center, three leaves).
	StarPattern4 = Pattern{K: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}}
)

// Validate checks the pattern is well-formed and connected.
func (p Pattern) Validate() error {
	if p.K < 2 || p.K > MaxPatternNodes {
		return fmt.Errorf("queries: pattern must have 2..%d nodes, got %d", MaxPatternNodes, p.K)
	}
	if len(p.Edges) == 0 {
		return errors.New("queries: pattern has no edges")
	}
	seen := make(map[[2]int]bool)
	adj := make([][]int, p.K)
	for _, e := range p.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= p.K || v < 0 || v >= p.K {
			return fmt.Errorf("queries: pattern edge %v out of range", e)
		}
		if u == v {
			return fmt.Errorf("queries: pattern self-loop %v", e)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return fmt.Errorf("queries: duplicate pattern edge %v", e)
		}
		seen[key] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	// Connectivity via BFS from 0.
	visited := make([]bool, p.K)
	queue := []int{0}
	visited[0] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	for i, ok := range visited {
		if !ok {
			return fmt.Errorf("queries: pattern vertex %d disconnected", i)
		}
	}
	return nil
}

// planStep is one compiled join: attach pattern edge (U, V) where U is
// already embedded; Closing means V is too (cycle-closing check).
type planStep struct {
	U, V    int
	Closing bool
}

// compile orders the pattern edges so every step anchors on an
// already-embedded vertex, choosing the order greedily by cheap
// structural heuristics (janus-datalog style, no statistics):
//
//   - a cycle-closing edge always goes first — closing is a
//     semijoin-shaped shave that only ever removes partial embeddings,
//     so running it before the next extension keeps every later join's
//     input smaller;
//   - among extensions, pick the one whose new vertex has the most
//     pattern edges into the already-embedded set — the vertex that
//     unlocks the most closings soonest;
//   - ties break on declaration order, keeping compilation
//     deterministic (the plan is part of a motif workload's identity:
//     its data-dependent weights depend on join order).
//
// Validate must pass first.
func (p Pattern) compile() (first [2]int, steps []planStep) {
	assigned := make([]bool, p.K)
	used := make([]bool, len(p.Edges))
	adj := make([][]int, p.K)
	for _, e := range p.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	first = p.Edges[0]
	used[0] = true
	assigned[first[0]] = true
	assigned[first[1]] = true
	for done := 1; done < len(p.Edges); done++ {
		best, bestScore, closing := -1, -1, false
		for i, e := range p.Edges {
			if used[i] {
				continue
			}
			u, v := e[0], e[1]
			switch {
			case assigned[u] && assigned[v]:
				if !closing {
					best, closing = i, true
				}
			case assigned[u] || assigned[v]:
				if closing {
					continue
				}
				w := v
				if assigned[v] {
					w = u
				}
				score := 0
				for _, x := range adj[w] {
					if assigned[x] {
						score++
					}
				}
				if score > bestScore {
					best, bestScore = i, score
				}
			}
		}
		if best < 0 {
			// Unreachable for validated (connected) patterns.
			panic("queries: pattern compilation stalled")
		}
		e := p.Edges[best]
		used[best] = true
		switch u, v := e[0], e[1]; {
		case closing:
			steps = append(steps, planStep{U: u, V: v, Closing: true})
		case assigned[u]:
			steps = append(steps, planStep{U: u, V: v})
			assigned[v] = true
		default:
			steps = append(steps, planStep{U: v, V: u})
			assigned[u] = true
		}
	}
	return first, steps
}

// Embedding is a partial assignment of pattern vertices to graph nodes;
// unassigned slots hold -1.
type Embedding [MaxPatternNodes]graph.Node

func emptyEmbedding() Embedding {
	var e Embedding
	for i := range e {
		e[i] = -1
	}
	return e
}

// anchor keys: (node, -1) anchors one endpoint, (a, b) anchors both.
type anchorKey [2]graph.Node

// fragmentKey returns the canonical fusion identity of a pattern: the
// vertex count and the edge list in declared order and orientation.
// Edge order is part of the identity because the compiled join plan —
// and with it the data-dependent motif weights — depends on it.
func (p Pattern) fragmentKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k%d", p.K)
	for _, e := range p.Edges {
		fmt.Fprintf(&b, ":%d-%d", e[0], e[1])
	}
	return b.String()
}

// MotifCount compiles the pattern into a tree over the symmetric edge
// dataset producing a single Unit record whose weight reflects the
// motif's rescaled prevalence. Privacy cost: one use per pattern edge.
func MotifCount(p Pattern) (Expr[Unit], error) {
	emb, err := embeddings(p)
	if err != nil {
		return Expr[Unit]{}, err
	}
	return sel(emb, func(Embedding) Unit { return Unit{} }), nil
}

// embeddings is the pattern's compiled embedding chain, one fragment: two
// motif analyses over the same pattern share the whole chain.
func embeddings(p Pattern) (Expr[Embedding], error) {
	if err := p.Validate(); err != nil {
		return Expr[Embedding]{}, err
	}
	first, steps := p.compile()
	emb := sel(root, func(e graph.Edge) Embedding {
		out := emptyEmbedding()
		out[first[0]] = e.Src
		out[first[1]] = e.Dst
		return out
	})
	for _, s := range steps {
		if s.Closing {
			emb = joinDistinct(emb, root,
				func(e Embedding) anchorKey { return anchorKey{e[s.U], e[s.V]} },
				func(ed graph.Edge) anchorKey { return anchorKey{ed.Src, ed.Dst} },
				closeCycle)
			continue
		}
		joined := joinDistinct(emb, root,
			func(e Embedding) anchorKey { return anchorKey{e[s.U], -1} },
			func(ed graph.Edge) anchorKey { return anchorKey{ed.Src, -1} },
			extendTo(s.V))
		// Injective embeddings only: a just-assigned node must be new.
		// (A collision leaves the slot equal to another slot's node.)
		emb = where(joined, injective)
	}
	return frag("motif-emb/"+p.fragmentKey(), emb), nil
}

// closeCycle keeps an embedding that has the edge between its anchored
// vertices. That edge is the join key, so the embedding determines the
// pair: distinct.
func closeCycle(e Embedding, _ graph.Edge) Embedding { return e }

// extendTo assigns slot v, unassigned in every embedding reaching the
// step, the far end of an edge from the anchor: the record spells the
// embedding (clear slot v) and the edge (anchor, slot v), so distinct.
// Not inlined: an inlined copy would be a second closure body, and the
// injectivity test identifies a declared reduce by its code.
//
//go:noinline
func extendTo(v int) func(Embedding, graph.Edge) Embedding {
	return func(e Embedding, ed graph.Edge) Embedding {
		e[v] = ed.Dst
		return e
	}
}

// injective reports whether all assigned slots hold distinct nodes.
func injective(e Embedding) bool {
	for i := 0; i < len(e); i++ {
		if e[i] < 0 {
			continue
		}
		for j := i + 1; j < len(e); j++ {
			if e[j] == e[i] {
				return false
			}
		}
	}
	return true
}
