package queries

import (
	"fmt"

	"wpinq/internal/graph"
	"wpinq/internal/weighted"
)

// The analyses, each written once as an operator tree; expr.go says how
// a tree is measured (OneShot) and how it is fitted (Stream).
//
// Every reusable piece (the length-two-path join, the degree GroupBy,
// the path-degree join, a motif's embedding chain, each fit analysis's
// own suffix) is a fragment, so trees lowered through the same fusing
// plan.Memo share their common prefixes — one DAG with fan-out at the
// divergence points instead of N private copies. A nil or non-fusing
// memo builds every tree privately, constructing the same operators in
// the same order, which is what makes fused and unfused plans
// differentially comparable.
//
// The graph-shaped interiors run on the packed record encodings of
// packed.go, fragment boundaries included: paths, degrees and
// path-degree hand their consumers PPath, PDeg and PPathDeg words, and
// a record is decoded only where a decoded record is the output (Paths,
// Degrees, SbD's suffix, the motif degree joins).
//
// Fragment keys spell every parameter that changes the operator subgraph
// (bucket width, pattern shape); two requests share a fragment exactly
// when their subgraphs are identical.

// degreeBucket canonicalizes the degree bucket width: widths <= 1 all
// leave degrees exact, so they name one fragment.
func degreeBucket(bucket int) int { return max(bucket, 1) }

// packedEdges packs the edge dataset for a fragment's interior. Each
// fragment has its own pack node and fans its interior out from it.
func packedEdges() Expr[PEdge] { return sel(root, packEdge) }

// Nodes transforms the symmetric edge dataset into a dataset of vertices,
// each at weight 0.5 (paper Section 2.8's SelectMany/Shave/Where idiom).
func Nodes() Expr[graph.Node] {
	names := selectManySlice(root, func(e graph.Edge) []graph.Node {
		return []graph.Node{e.Src, e.Dst}
	})
	shaved := shaveConst(names, 0.5)
	first := where(shaved, func(ix weighted.Indexed[graph.Node]) bool { return ix.Index == 0 })
	return sel(first, func(ix weighted.Indexed[graph.Node]) graph.Node { return ix.Value })
}

// NodeCount reduces the node dataset to a single record whose weight is
// |V| / 2, for releasing the (noisy) number of vertices. Privacy cost: eps.
func NodeCount() Expr[Unit] {
	return sel(Nodes(), func(graph.Node) Unit { return Unit{} })
}

// DegreeCCDF builds the degree complementary CDF (paper Section 3.1):
// record i carries the number of vertices with degree greater than i.
// Privacy cost: eps.
func DegreeCCDF() Expr[int] {
	names := sel(root, func(e graph.Edge) graph.Node { return e.Src })
	shaved := shaveConst(names, 1.0)
	return sel(shaved, func(ix weighted.Indexed[graph.Node]) int { return ix.Index })
}

// DegreeSequence builds the non-increasing degree sequence by transposing
// the CCDF (paper Section 3.1): record j carries the degree of the
// (j+1)-th highest-degree vertex. Privacy cost: eps.
func DegreeSequence() Expr[int] {
	shaved := shaveConst(DegreeCCDF(), 1.0)
	return sel(shaved, func(ix weighted.Indexed[int]) int { return ix.Index })
}

// degrees is the fragment behind Degrees: packed (vertex, degree) words.
func degrees(bucket int) Expr[PDeg] {
	bucket = degreeBucket(bucket)
	grouped := groupBy(packedEdges(), PEdge.srcKey, func(es []PEdge) int { return len(es) / bucket })
	return frag(fmt.Sprintf("degrees/b=%d", bucket), sel(grouped, func(g weighted.Grouped[uint64, int]) PDeg {
		//wpinq:packed-ok g.Key is the GroupBy key produced by e.srcKey(), a packed accessor; the generic Grouped plumbing hides the provenance
		return packedDeg(g.Key, g.Result)
	}))
}

// Degrees computes (vertex, degree) pairs at weight 0.5 via GroupBy (paper
// Section 2.5). bucket >= 2 groups degrees into floor(d/bucket) buckets,
// the Figure 3 remedy for noise-dominated TbD measurements; bucket <= 1
// leaves degrees exact.
func Degrees(bucket int) Expr[weighted.Grouped[graph.Node, int]] {
	return sel(degrees(bucket), func(d PDeg) weighted.Grouped[graph.Node, int] {
		return weighted.Grouped[graph.Node, int]{Key: unpackNode(d.nodeKey()), Result: d.deg()}
	})
}

// paths is the fragment behind Paths: packed length-two paths.
func paths() Expr[PPath] {
	pe := packedEdges()
	joined := joinDistinct(pe, pe, PEdge.dstKey, PEdge.srcKey, pathOf)
	return frag("paths", where(joined, func(p PPath) bool { return p.aKey() != p.cKey() }))
}

// pathOf joins edge (a, b) to edge (b, c) as the path (a, b, c), which
// spells both edges: distinct.
func pathOf(x, y PEdge) PPath { return packedPath(x.srcKey(), x.dstKey(), y.dstKey()) }

// Paths builds the length-two-path dataset (a,b,c), a != c, each at weight
// 1/(2*db) (paper Section 2.7). Privacy cost contribution: 2 uses.
func Paths() Expr[Path] { return sel(paths(), PPath.unpack) }

// pathDeg joins packed paths with the center vertex's degree: the shared
// "abc" prefix of TbD and SbD.
func pathDeg(bucket int) Expr[PPathDeg] {
	return frag(fmt.Sprintf("pathdeg/b=%d", degreeBucket(bucket)),
		joinDistinct(paths(), degrees(bucket), PPath.bKey, PDeg.nodeKey, pathDegOf))
}

// pathDegOf pairs path (a, b, c) with a degree record (b, d) as
// ((a, b, c), d), which spells both: distinct.
func pathDegOf(p PPath, d PDeg) PPathDeg { return PPathDeg{P: p, Deg: int32(d.deg())} }

// WedgeCount reduces the length-two-path dataset to a single Unit record:
// the rescaled wedge count, whose ratio to a triangle measurement yields a
// clustering-coefficient estimate. Privacy cost: 2 eps.
func WedgeCount() Expr[Unit] {
	return frag("wedges", sel(paths(), func(PPath) Unit { return Unit{} }))
}

// TbI builds the triangles-by-intersect dataset (paper Section 5.3): a
// single Unit record whose weight is eq. 8's triangle signal,
// sum over triangles of min-reciprocal-degree pairs. Privacy cost: 4 eps.
func TbI() Expr[Unit] {
	pp := paths()
	triangles := intersect(sel(pp, PPath.rotate), pp)
	return frag("tbi", sel(triangles, func(PPath) Unit { return Unit{} }))
}

// JDD builds the joint degree distribution (paper Section 3.2): records
// (da, db) for each directed edge (a,b), at weight 1/(2+2da+2db) (eq. 3).
// Privacy cost: 4 eps.
func JDD() Expr[DegPair] {
	temp := joinDistinct(degrees(1), packedEdges(), PDeg.nodeKey, PEdge.srcKey, edgeDegOf)
	// Many edges share a degree pair: this join merges, so it is not
	// distinct.
	return frag("jdd", join(temp, temp, PEdgeDeg.edgeKey, PEdgeDeg.reverseKey,
		func(x, y PEdgeDeg) DegPair { return DegPair{DA: x.deg(), DB: y.deg()} }))
}

// edgeDegOf pairs edge (a, b) with a degree record (a, d) as (a, b, d),
// which spells both: distinct.
func edgeDegOf(d PDeg, e PEdge) PEdgeDeg { return packedEdgeDeg(e, d.deg()) }

// TbD builds the triangles-by-degree dataset (paper Section 3.3): sorted
// degree triples, where each triangle (a,b,c) contributes total weight
// 3/(da^2+db^2+dc^2) to its sorted triple (eq. 4). bucket >= 2 replaces
// degrees with floor(d/bucket) (Section 5.2). Privacy cost: 9 eps.
func TbD(bucket int) Expr[DegTriple] {
	abc := pathDeg(bucket)
	rotate := func(x PPathDeg) PPathDeg { return PPathDeg{x.P.rotate(), x.Deg} }
	byPath := func(x PPathDeg) PPath { return x.P }
	bca := sel(abc, rotate)
	cab := sel(bca, rotate)
	two := joinDistinct(abc, bca, byPath, byPath, pathDeg2Of)
	// Every triangle of one degree profile lands on one triple: this join
	// merges, so it is not distinct.
	return frag(fmt.Sprintf("tbd/b=%d", degreeBucket(bucket)),
		join(two, cab, func(x PPathDeg2) PPath { return x.P }, byPath,
			func(x PPathDeg2, y PPathDeg) DegTriple { return SortTriple(int(x.D1), int(x.D2), int(y.Deg)) }))
}

// pathDeg2Of pairs two degree records of one path, (p, d1) and (p, d2),
// as (p, d1, d2), which spells both: distinct.
func pathDeg2Of(x, y PPathDeg) PPathDeg2 { return PPathDeg2{P: x.P, D1: x.Deg, D2: y.Deg} }

// SbD builds the squares-by-degree dataset (paper Section 3.4): sorted
// degree quadruples where each 4-cycle contributes eight observations of
// weight SbDWeight (eq. 6). Past the path-degree prefix it runs on
// decoded records: its [2]graph.Node and Path3 join keys have no packed
// encoding, and it sits outside the MCMC workload hot path. Privacy
// cost: 12 eps.
func SbD() Expr[DegQuad] {
	abc := sel(pathDeg(1), PPathDeg.unpack)
	// Join abc with itself matching (a,b,c) against (b,c,d): length-three
	// paths (a,b,c,d) carrying db and dc.
	abcd := join(abc, abc,
		func(x PathDeg) [2]graph.Node { return [2]graph.Node{x.Path.B, x.Path.C} },
		func(y PathDeg) [2]graph.Node { return [2]graph.Node{y.Path.A, y.Path.B} },
		func(x, y PathDeg) Path3Deg2 {
			return Path3Deg2{
				Path: Path3{x.Path.A, x.Path.B, x.Path.C, y.Path.C},
				DB:   x.Deg, DC: y.Deg,
			}
		})
	abcd = where(abcd, func(p Path3Deg2) bool { return p.Path.A != p.Path.D })
	cdab := sel(abcd, func(x Path3Deg2) Path3Deg2 {
		return Path3Deg2{Path: x.Path.Rotate2(), DB: x.DB, DC: x.DC}
	})
	byPath := func(x Path3Deg2) Path3 { return x.Path }
	return join(abcd, cdab, byPath, byPath, func(x, y Path3Deg2) DegQuad {
		// x carries (db, dc) of path (a,b,c,d); y's fields are the
		// degrees (dd, da) observed from the rotated path (c,d,a,b).
		return SortQuad(y.DB, x.DB, x.DC, y.DC)
	})
}

// JDDCounts converts released JDD record weights into estimated directed
// edge counts per degree pair, by dividing out the closed-form record
// weight (eq. 3). Feed the result to
// postprocess.AssortativityFromCounts to estimate assortativity from a DP
// measurement (Section 1.2's third use of probabilistic inference).
func JDDCounts(released map[DegPair]float64) map[[2]int]float64 {
	return JDDCountsThresholded(released, 0)
}

// JDDCountsThresholded is JDDCounts with noise suppression: released
// weights below minWeight are dropped before inversion. Choosing
// minWeight around the Laplace noise scale (1/eps) removes records that
// are overwhelmingly noise, whose inversion would otherwise be amplified
// by the 2+2da+2db factor — cheap, principled post-processing.
func JDDCountsThresholded(released map[DegPair]float64, minWeight float64) map[[2]int]float64 {
	out := make(map[[2]int]float64, len(released))
	//wpinq:nondeterministic-ok map-to-map transform with per-key outputs; no cross-key accumulation, so order cannot leak
	for p, w := range released {
		if w < minWeight {
			continue
		}
		out[[2]int{p.DA, p.DB}] = w / JDDWeight(p.DA, p.DB)
	}
	return out
}
