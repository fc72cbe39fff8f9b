package queries

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/weighted"
)

// A join declared distinct (joinDistinct) promises that no two matching
// pairs reduce to one record: the executor's loads then emit its outer
// product without merging, which is bit-identical only if the promise
// holds. These tests hold every declaration to it, exhaustively, over a
// small domain of the records each join can receive.

// smallNodes is the vertex count of the exhaustive domains.
const smallNodes = 8

// smallDegs are the degrees the domains pair with vertices.
var smallDegs = []int{0, 1, 2, 3}

// checkInjective fails t if two matching pairs of as × bs — keyA(x) ==
// keyB(y) — reduce to one record, or if no pair matches.
func checkInjective[A, B, K, R comparable](t *testing.T, as []A, bs []B, keyA func(A) K, keyB func(B) K, reduce func(A, B) R) {
	t.Helper()
	byKey := map[K][]B{}
	for _, y := range bs {
		byKey[keyB(y)] = append(byKey[keyB(y)], y)
	}
	seen := map[R]string{}
	pairs := 0
	for _, x := range as {
		for _, y := range byKey[keyA(x)] {
			r := reduce(x, y)
			pair := fmt.Sprint(x, " ⋈ ", y)
			if prev, dup := seen[r]; dup {
				t.Fatalf("%s and %s both reduce to %v", prev, pair, r)
			}
			seen[r] = pair
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no pair of the domain matches")
	}
}

func smallEdges() []PEdge {
	var es []PEdge
	for a := 0; a < smallNodes; a++ {
		for b := 0; b < smallNodes; b++ {
			es = append(es, packEdge(graph.Edge{Src: graph.Node(a), Dst: graph.Node(b)}))
		}
	}
	return es
}

func smallPDegs() []PDeg {
	var ds []PDeg
	for v := 0; v < smallNodes; v++ {
		for _, d := range smallDegs {
			ds = append(ds, packedDeg(packNode(graph.Node(v)), d))
		}
	}
	return ds
}

func smallPaths() []PPath {
	var ps []PPath
	for _, x := range smallEdges() {
		for c := 0; c < smallNodes; c++ {
			ps = append(ps, packedPath(x.srcKey(), x.dstKey(), packNode(graph.Node(c))))
		}
	}
	return ps
}

func smallPathDegs() []PPathDeg {
	var out []PPathDeg
	for _, p := range smallPaths() {
		for _, d := range smallDegs {
			out = append(out, PPathDeg{P: p, Deg: int32(d)})
		}
	}
	return out
}

// assignments returns every embedding that assigns the given slots a
// vertex of [0, n) and leaves the rest unassigned.
func assignments(slots []int, n int) []Embedding {
	out := []Embedding{emptyEmbedding()}
	for _, s := range slots {
		var next []Embedding
		for _, e := range out {
			for v := 0; v < n; v++ {
				e[s] = graph.Node(v)
				next = append(next, e)
			}
		}
		out = next
	}
	return out
}

func graphEdges(n int) []graph.Edge {
	var es []graph.Edge
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			es = append(es, graph.Edge{Src: graph.Node(a), Dst: graph.Node(b)})
		}
	}
	return es
}

// motifPatterns are the patterns the motif rows compile and check.
var motifPatterns = []Pattern{TrianglePattern, SquarePattern, PathPattern3, StarPattern4}

// checkEmbeddingSteps checks the reduces of every pattern's embedding
// chain of the given kind (closing or extending), over the embeddings
// that reach each step: the slots assigned so far hold any vertex.
func checkEmbeddingSteps(t *testing.T, closing bool) {
	edges := graphEdges(smallNodes)
	for _, p := range motifPatterns {
		first, steps := p.compile()
		slots := []int{first[0], first[1]}
		for _, s := range steps {
			in := assignments(slots, smallNodes)
			switch {
			case s.Closing && closing:
				checkInjective(t, in, edges,
					func(e Embedding) anchorKey { return anchorKey{e[s.U], e[s.V]} },
					func(ed graph.Edge) anchorKey { return anchorKey{ed.Src, ed.Dst} },
					closeCycle)
			case !s.Closing && !closing:
				checkInjective(t, in, edges,
					func(e Embedding) anchorKey { return anchorKey{e[s.U], -1} },
					func(ed graph.Edge) anchorKey { return anchorKey{ed.Src, -1} },
					extendTo(s.V))
			}
			if !s.Closing {
				slots = append(slots, s.V)
			}
		}
	}
}

// checkDegreeSteps checks MotifByDegree's degree joins: at vertex v's
// join every slot is assigned and slots below v carry a degree.
func checkDegreeSteps(t *testing.T) {
	const n = 5 // 5⁴ embeddings × 3³ degree tuples at the last join
	var degs []weighted.Grouped[graph.Node, int]
	for v := 0; v < n; v++ {
		for _, d := range smallDegs[:3] {
			degs = append(degs, weighted.Grouped[graph.Node, int]{Key: graph.Node(v), Result: d})
		}
	}
	for _, k := range []int{3, 4} {
		slots := make([]int, k)
		for i := range slots {
			slots[i] = i
		}
		embs := assignments(slots, n)
		for v := 0; v < k; v++ {
			in := []embDegs{}
			for _, e := range embs {
				in = append(in, embDegs{Emb: e})
			}
			for w := 0; w < v; w++ {
				var next []embDegs
				for _, x := range in {
					for _, d := range smallDegs[:3] {
						x.Degs[w] = d
						next = append(next, x)
					}
				}
				in = next
			}
			checkInjective(t, in, degs,
				func(x embDegs) graph.Node { return x.Emb[v] },
				func(d weighted.Grouped[graph.Node, int]) graph.Node { return d.Key },
				degreeAt(v))
		}
	}
}

// distinctRows are the reduces the package declares distinct, each with
// its exhaustive check.
var distinctRows = []struct {
	name   string
	reduce any
	check  func(t *testing.T)
}{
	{"paths", pathOf, func(t *testing.T) {
		checkInjective(t, smallEdges(), smallEdges(), PEdge.dstKey, PEdge.srcKey, pathOf)
	}},
	{"pathDeg", pathDegOf, func(t *testing.T) {
		checkInjective(t, smallPaths(), smallPDegs(), PPath.bKey, PDeg.nodeKey, pathDegOf)
	}},
	{"jdd edge-degree", edgeDegOf, func(t *testing.T) {
		checkInjective(t, smallPDegs(), smallEdges(), PDeg.nodeKey, PEdge.srcKey, edgeDegOf)
	}},
	{"tbd two", pathDeg2Of, func(t *testing.T) {
		byPath := func(x PPathDeg) PPath { return x.P }
		rotated := smallPathDegs()
		for i, x := range rotated {
			rotated[i] = PPathDeg{x.P.rotate(), x.Deg}
		}
		checkInjective(t, smallPathDegs(), rotated, byPath, byPath, pathDeg2Of)
	}},
	{"motif closing", closeCycle, func(t *testing.T) { checkEmbeddingSteps(t, true) }},
	{"motif extension", extendTo(0), func(t *testing.T) { checkEmbeddingSteps(t, false) }},
	{"motif degree", degreeAt(0), checkDegreeSteps},
}

// TestDistinctReducesAreInjective checks every declared reduce.
func TestDistinctReducesAreInjective(t *testing.T) {
	for _, row := range distinctRows {
		t.Run(row.name, row.check)
	}
}

// declaredReduces lowers e to the executor and returns the code pointer
// of every reduce its distinct joins declare.
func declaredReduces[T comparable](e Expr[T]) []uintptr {
	var out []uintptr
	edges := engine.NewInput[graph.Edge](engine.New())
	e.source(&lowering{
		built:    map[any]any{root.n: edges},
		declared: func(reduce any) { out = append(out, reflect.ValueOf(reduce).Pointer()) },
	})
	return out
}

// TestEveryDistinctJoinIsChecked pins that the rows above are exactly
// what the analyses declare: a join declared distinct whose reduce has
// no row fails here, and so does a row no analysis declares.
func TestEveryDistinctJoinIsChecked(t *testing.T) {
	rows := map[uintptr]string{}
	for _, row := range distinctRows {
		rows[reflect.ValueOf(row.reduce).Pointer()] = row.name
	}
	declared := map[string][]uintptr{
		"Nodes":          declaredReduces(Nodes()),
		"DegreeSequence": declaredReduces(DegreeSequence()),
		"Degrees":        declaredReduces(Degrees(1)),
		"Paths":          declaredReduces(Paths()),
		"WedgeCount":     declaredReduces(WedgeCount()),
		"TbI":            declaredReduces(TbI()),
		"TbD":            declaredReduces(TbD(5)),
		"JDD":            declaredReduces(JDD()),
		"SbD":            declaredReduces(SbD()),
	}
	for _, p := range motifPatterns {
		count, err := MotifCount(p)
		if err != nil {
			t.Fatal(err)
		}
		byDegree, err := MotifByDegree(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		key := p.fragmentKey()
		declared["MotifCount "+key] = declaredReduces(count)
		declared["MotifByDegree "+key] = declaredReduces(byDegree)
	}
	used := map[string]bool{}
	for tree, reduces := range declared {
		for _, r := range reduces {
			name, ok := rows[r]
			if !ok {
				t.Errorf("%s declares a distinct join whose reduce (%s) has no injectivity row",
					tree, runtime.FuncForPC(r).Name())
			}
			used[name] = true
		}
	}
	for _, row := range distinctRows {
		if !used[row.name] {
			t.Errorf("row %q checks a reduce no analysis declares distinct", row.name)
		}
	}
}
