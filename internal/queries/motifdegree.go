package queries

import (
	"fmt"

	"wpinq/internal/graph"
	"wpinq/internal/weighted"
)

// Motif-by-degree: the full generalization paper Section 3.5 sketches —
// TbD and SbD extended to arbitrary connected patterns. After the motif
// embedding pipeline, the embedding is joined once per pattern vertex with
// the (vertex, degree) dataset, producing a sorted tuple of the (possibly
// bucketed) degrees of the vertices each occurrence is incident on.
//
// As the paper notes for general motifs, occurrences with different local
// structure may carry different weights, so the released histogram is a
// weighted prevalence profile to be interpreted through MCMC rather than
// divided by a single closed form. Presence/absence and relative mass
// remain exact, and the privacy accounting is automatic.

// DegProfile is a sorted tuple of vertex degrees for a motif occurrence;
// slots beyond the pattern's size hold -1.
type DegProfile [MaxPatternNodes]int

// sortProfile canonicalizes the first k slots ascending. It runs once
// per emitted motif difference on the hot path, so it insertion-sorts
// in place inside the fixed-size profile (k <= MaxPatternNodes) rather
// than copying through a heap slice.
func sortProfile(degs []int) DegProfile {
	var p DegProfile
	for i := range p {
		p[i] = -1
	}
	copy(p[:], degs)
	for i := 1; i < len(degs); i++ {
		x := p[i]
		j := i - 1
		for j >= 0 && p[j] > x {
			p[j+1] = p[j]
			j--
		}
		p[j+1] = x
	}
	return p
}

// embDegs threads a partial degree tuple through the per-vertex joins.
type embDegs struct {
	Emb  Embedding
	Degs [MaxPatternNodes]int
}

// degreeAt records a degree of vertex v's node in slot v, zero in every
// tuple reaching the join: the record spells the tuple (clear slot v)
// and the degree record (its node, slot v), so distinct. Not inlined,
// like extendTo.
//
//go:noinline
func degreeAt(v int) func(embDegs, weighted.Grouped[graph.Node, int]) embDegs {
	return func(x embDegs, d weighted.Grouped[graph.Node, int]) embDegs {
		x.Degs[v] = d.Result
		return x
	}
}

// MotifByDegree compiles the pattern's degree profile: each occurrence
// contributes its (data-dependent) weight to the sorted tuple of its
// vertices' bucketed degrees. The embedding chain and the degrees prefix
// are the fragments MotifCount and TbD use. Privacy cost: one use per
// pattern edge for the embedding plan, plus one per pattern vertex for
// its degree join.
func MotifByDegree(p Pattern, bucket int) (Expr[DegProfile], error) {
	emb, err := embeddings(p)
	if err != nil {
		return Expr[DegProfile]{}, err
	}
	degs := Degrees(bucket)
	cur := sel(emb, func(e Embedding) embDegs { return embDegs{Emb: e} })
	for v := 0; v < p.K; v++ {
		cur = joinDistinct(cur, degs,
			func(x embDegs) graph.Node { return x.Emb[v] },
			func(d weighted.Grouped[graph.Node, int]) graph.Node { return d.Key },
			degreeAt(v))
	}
	k := p.K
	return frag(fmt.Sprintf("motif-deg/%s/b=%d", p.fragmentKey(), degreeBucket(bucket)),
		sel(cur, func(x embDegs) DegProfile { return sortProfile(x.Degs[:k]) })), nil
}
