package queries

import (
	"fmt"
	"strings"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/plan"
	"wpinq/internal/weighted"
)

// Incremental pipeline builders: the same dataflow shapes as the one-shot
// queries, wired over the executor's operators (wpinq/internal/engine) so
// MCMC can re-score a synthetic graph after each edge swap in time
// proportional to the change (paper Section 4.3). Each builder takes the
// edge-difference root stream and returns the stream of final output
// records, ready to terminate in a NoisyCountSink (for scoring) or
// Collector (for inspection).
//
// Every reusable fragment (the length-two-path join, the degree GroupBy,
// the path-degree join, motif embedding chains) is requested through a
// plan.Memo, so pipelines built on the same fusing memo share their
// common prefixes — one fused DAG with fan-out at the divergence points
// instead of N private copies. A nil or non-fusing memo builds every
// request privately, constructing the same operators in the same order,
// which is what makes fused and unfused plans differentially comparable.
//
// Fragment interiors run on the packed record encodings of packed.go: a
// fragment packs its inputs at entry (the *Core helpers hold the packed
// operator chains), threads uint64-keyed records through its joins and
// group-bys, and decodes at exit, so fragments exchange decoded records
// and keys, output types, and DAG shape do not depend on the encoding.
//
// Fragment keys canonicalize every parameter that changes the operator
// subgraph (bucket width, pattern shape); two requests share a fragment
// exactly when their subgraphs are identical.

// fusedBucket canonicalizes the degree bucket width for fragment
// identity: widths <= 1 all leave degrees unbucketed, so they name one
// fragment.
func fusedBucket(bucket int) int {
	if bucket > 1 {
		return bucket
	}
	return 1
}

// Fragment key constructors.
func pathsKey() string             { return "paths" }
func degreesKey(bucket int) string { return fmt.Sprintf("degrees/b=%d", fusedBucket(bucket)) }
func pathDegKey(bucket int) string { return fmt.Sprintf("pathdeg/b=%d", fusedBucket(bucket)) }
func tbdKey(bucket int) string     { return fmt.Sprintf("tbd/b=%d", fusedBucket(bucket)) }
func motifEmbKey(p Pattern) string { return "motif-emb/" + p.fragmentKey() }
func motifDegKey(p Pattern, bucket int) string {
	return fmt.Sprintf("motif-deg/%s/b=%d", p.fragmentKey(), fusedBucket(bucket))
}

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

// fragment requests one pipeline fragment through the memo and taps the
// stream it builds with the memo's propagation counter.
func fragment[T comparable](m *plan.Memo, n plan.Node, build func() engine.Source[T]) engine.Source[T] {
	return plan.Shared(m, n, func() engine.Source[T] {
		s := build()
		plan.Count(m, s)
		return s
	})
}

// packEdges packs the edge stream for a fragment's interior. Each
// fragment creates one pack node and fans its interior out from it.
func packEdges(edges engine.Source[graph.Edge]) engine.Source[PEdge] {
	return engine.Select(edges, packEdge)
}

// packGroupedDeg re-enters packed form from the degrees fragment's
// decoded output.
func packGroupedDeg(d weighted.Grouped[graph.Node, int]) PDeg {
	return packedDeg(packNode(d.Key), d.Result)
}

// pathsCore is the packed interior of PathsPipeline.
func pathsCore(pe engine.Source[PEdge]) engine.Source[PPath] {
	joined := engine.Join(pe, pe,
		func(e PEdge) uint64 { return e.dstKey() },
		func(e PEdge) uint64 { return e.srcKey() },
		func(x, y PEdge) PPath { return packedPath(x.srcKey(), x.dstKey(), y.dstKey()) })
	return engine.Where(joined, func(p PPath) bool { return p.aKey() != p.cKey() })
}

// degreesCore is the packed interior of DegreesPipeline.
func degreesCore(pe engine.Source[PEdge], bucket int) engine.Source[PDeg] {
	grouped := engine.GroupBy(pe,
		func(e PEdge) uint64 { return e.srcKey() },
		func(es []PEdge) int {
			if bucket > 1 {
				return len(es) / bucket
			}
			return len(es)
		})
	return engine.Select(grouped, func(g weighted.Grouped[uint64, int]) PDeg {
		//wpinq:packed-ok g.Key is the GroupBy key produced by e.srcKey(), a packed accessor; the generic Grouped plumbing hides the provenance
		return packedDeg(g.Key, g.Result)
	})
}

// pathDegCore joins packed paths with the center vertex's degree: the
// shared "abc" prefix of TbD and SbD.
func pathDegCore(pp engine.Source[PPath], pd engine.Source[PDeg]) engine.Source[PPathDeg] {
	return engine.Join(pp, pd,
		func(p PPath) uint64 { return p.bKey() },
		func(d PDeg) uint64 { return d.nodeKey() },
		func(p PPath, d PDeg) PPathDeg { return PPathDeg{P: p, Deg: int32(d.deg())} })
}

// tbiCore is the rotate/intersect/unit suffix of TbI over packed paths.
func tbiCore(pp engine.Source[PPath]) engine.Source[Unit] {
	rotated := engine.Select(pp, func(p PPath) PPath { return p.rotate() })
	triangles := engine.Intersect(rotated, pp)
	return engine.Select(triangles, func(PPath) Unit { return Unit{} })
}

// tbdCore is the rotations/joins/sort suffix of TbD over the packed
// path-degree stream.
func tbdCore(abc engine.Source[PPathDeg]) engine.Source[DegTriple] {
	bca := engine.Select(abc, func(x PPathDeg) PPathDeg {
		return PPathDeg{x.P.rotate(), x.Deg}
	})
	cab := engine.Select(bca, func(x PPathDeg) PPathDeg {
		return PPathDeg{x.P.rotate(), x.Deg}
	})
	two := engine.Join(abc, bca,
		func(x PPathDeg) PPath { return x.P },
		func(y PPathDeg) PPath { return y.P },
		func(x, y PPathDeg) PPathDeg2 { return PPathDeg2{P: x.P, D1: x.Deg, D2: y.Deg} })
	return engine.Join(two, cab,
		func(x PPathDeg2) PPath { return x.P },
		func(y PPathDeg) PPath { return y.P },
		func(x PPathDeg2, y PPathDeg) DegTriple { return SortTriple(int(x.D1), int(x.D2), int(y.Deg)) })
}

// jddCore is the degree-join/self-join interior of JDD.
func jddCore(pd engine.Source[PDeg], pe engine.Source[PEdge]) engine.Source[DegPair] {
	temp := engine.Join(pd, pe,
		func(d PDeg) uint64 { return d.nodeKey() },
		func(e PEdge) uint64 { return e.srcKey() },
		func(d PDeg, e PEdge) PEdgeDeg { return packedEdgeDeg(e, d.deg()) })
	return engine.Join(temp, temp,
		func(x PEdgeDeg) uint64 { return x.edgeKey() },
		func(y PEdgeDeg) uint64 { return y.reverseKey() },
		func(x, y PEdgeDeg) DegPair { return DegPair{DA: x.deg(), DB: y.deg()} })
}

// PathsPipeline mirrors Paths: length-two paths (a,b,c), a != c, at weight
// 1/(2*db).
func PathsPipeline(m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[Path] {
	n := plan.Node{Key: pathsKey(), Op: "join(edges,edges)+where(a!=c)", Inputs: []string{"edges"}}
	return fragment(m, n, func() engine.Source[Path] {
		return engine.Select(pathsCore(packEdges(edges)), PPath.unpack)
	})
}

// DegreesPipeline mirrors Degrees: (vertex, possibly bucketed degree)
// pairs at weight 0.5.
func DegreesPipeline(m *plan.Memo, edges engine.Source[graph.Edge], bucket int) engine.Source[weighted.Grouped[graph.Node, int]] {
	n := plan.Node{Key: degreesKey(bucket), Op: "groupby(src,deg)", Inputs: []string{"edges"}}
	return fragment(m, n, func() engine.Source[weighted.Grouped[graph.Node, int]] {
		return engine.Select(degreesCore(packEdges(edges), bucket), func(d PDeg) weighted.Grouped[graph.Node, int] {
			return weighted.Grouped[graph.Node, int]{Key: unpackNode(d.nodeKey()), Result: d.deg()}
		})
	})
}

// PathDegPipeline is the paths-with-center-degree join: TbD's and SbD's
// "abc" prefix.
func PathDegPipeline(m *plan.Memo, edges engine.Source[graph.Edge], bucket int) engine.Source[PathDeg] {
	paths := PathsPipeline(m, edges)
	degs := DegreesPipeline(m, edges, bucket)
	n := plan.Node{Key: pathDegKey(bucket), Op: "join(paths,degrees)", Inputs: []string{pathsKey(), degreesKey(bucket)}}
	return fragment(m, n, func() engine.Source[PathDeg] {
		pp := engine.Select(paths, packPath)
		pd := engine.Select(degs, packGroupedDeg)
		return engine.Select(pathDegCore(pp, pd), PPathDeg.unpack)
	})
}

// TbIPipeline mirrors TbI: a single Unit record carrying the triangle
// signal of eq. 8. Cost model: 4 uses of the edge input.
func TbIPipeline(m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[Unit] {
	paths := PathsPipeline(m, edges)
	n := plan.Node{Key: "tbi", Op: "rotate+intersect+unit", Inputs: []string{pathsKey()}}
	return fragment(m, n, func() engine.Source[Unit] {
		return tbiCore(engine.Select(paths, packPath))
	})
}

// TbDPipeline mirrors TbD: sorted (bucketed) degree triples of triangles.
// Cost model: 9 uses of the edge input.
func TbDPipeline(m *plan.Memo, edges engine.Source[graph.Edge], bucket int) engine.Source[DegTriple] {
	abc := PathDegPipeline(m, edges, bucket)
	n := plan.Node{Key: tbdKey(bucket), Op: "rotations+2joins+sorttriple", Inputs: []string{pathDegKey(bucket)}}
	return fragment(m, n, func() engine.Source[DegTriple] {
		packed := engine.Select(abc, func(x PathDeg) PPathDeg {
			return PPathDeg{P: packPath(x.Path), Deg: int32(x.Deg)}
		})
		return tbdCore(packed)
	})
}

// JDDPipeline mirrors JDD: (da, db) records at weight 1/(2+2da+2db).
// Cost model: 4 uses of the edge input.
func JDDPipeline(m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[DegPair] {
	degs := DegreesPipeline(m, edges, 1)
	n := plan.Node{Key: "jdd", Op: "join(degrees,edges)+selfjoin", Inputs: []string{degreesKey(1), "edges"}}
	return fragment(m, n, func() engine.Source[DegPair] {
		pd := engine.Select(degs, packGroupedDeg)
		return jddCore(pd, packEdges(edges))
	})
}

// WedgeCountPipeline mirrors WedgeCount. Cost model: 2 uses of the edge
// input.
func WedgeCountPipeline(m *plan.Memo, edges engine.Source[graph.Edge]) engine.Source[Unit] {
	paths := PathsPipeline(m, edges)
	n := plan.Node{Key: "wedges", Op: "unit", Inputs: []string{pathsKey()}}
	return fragment(m, n, func() engine.Source[Unit] {
		return engine.Select(paths, func(Path) Unit { return Unit{} })
	})
}

// SbDPipeline mirrors SbD: sorted degree quadruples of 4-cycles. Past the
// path-degree prefix it runs on decoded records: its [2]graph.Node and
// Path3 join keys have no packed encoding, and it sits outside the MCMC
// workload hot path. Cost model: 12 uses of the edge input.
func SbDPipeline(edges engine.Source[graph.Edge]) engine.Source[DegQuad] {
	abc := PathDegPipeline(nil, edges, 1)
	abcd := engine.Join(abc, abc,
		func(x PathDeg) [2]graph.Node { return [2]graph.Node{x.Path.B, x.Path.C} },
		func(y PathDeg) [2]graph.Node { return [2]graph.Node{y.Path.A, y.Path.B} },
		func(x, y PathDeg) Path3Deg2 {
			return Path3Deg2{
				Path: Path3{A: x.Path.A, B: x.Path.B, C: x.Path.C, D: y.Path.C},
				DB:   x.Deg, DC: y.Deg,
			}
		})
	filtered := engine.Where(abcd, func(p Path3Deg2) bool { return p.Path.A != p.Path.D })
	cdab := engine.Select(filtered, func(x Path3Deg2) Path3Deg2 {
		return Path3Deg2{Path: x.Path.Rotate2(), DB: x.DB, DC: x.DC}
	})
	return engine.Join(filtered, cdab,
		func(x Path3Deg2) Path3 { return x.Path },
		func(y Path3Deg2) Path3 { return y.Path },
		func(x, y Path3Deg2) DegQuad { return SortQuad(y.DB, x.DB, x.DC, y.DC) })
}

// DegreeCCDFPipeline mirrors DegreeCCDF. Cost model: 1 use.
func DegreeCCDFPipeline(edges engine.Source[graph.Edge]) engine.Source[int] {
	names := engine.Select(edges, func(e graph.Edge) graph.Node { return e.Src })
	shaved := engine.ShaveConst(names, 1.0)
	return engine.Select(shaved, func(ix weighted.Indexed[graph.Node]) int { return ix.Index })
}

// DegreeSequencePipeline mirrors DegreeSequence. Cost model: 1 use.
func DegreeSequencePipeline(edges engine.Source[graph.Edge]) engine.Source[int] {
	ccdf := DegreeCCDFPipeline(edges)
	shaved := engine.ShaveConst(ccdf, 1.0)
	return engine.Select(shaved, func(ix weighted.Indexed[int]) int { return ix.Index })
}
