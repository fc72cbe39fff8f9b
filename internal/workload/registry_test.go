package workload_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wpinq/internal/budget"
	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/queries"
	"wpinq/internal/workload"
)

func TestBuiltinsRegistered(t *testing.T) {
	names := workload.Names()
	for _, want := range []string{"jdd", "star4-by-degree", "tbd", "tbi", "wedges"} {
		if _, err := workload.Get(want); err != nil {
			t.Errorf("built-in %q missing: %v (registered: %v)", want, err, names)
		}
	}
	if !reflect.DeepEqual(names, []string{"jdd", "star4-by-degree", "tbd", "tbi", "wedges"}) {
		t.Errorf("Names() = %v, want the sorted built-ins", names)
	}
	// Registered use counts match the paper's privacy multipliers.
	uses := map[string]int{"tbi": 4, "tbd": 9, "jdd": 4, "wedges": 2, "star4-by-degree": 7}
	for name, want := range uses {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Uses != want {
			t.Errorf("%s.Uses = %d, want %d", name, w.Uses, want)
		}
	}
}

func TestRegisterRejectsBadWorkloads(t *testing.T) {
	if err := workload.Register(workload.Workload{Name: "tbi"}); err == nil {
		t.Error("re-registering tbi accepted")
	}
	if err := workload.Register(workload.Workload{Name: "Bad Name"}); err == nil {
		t.Error("invalid name accepted")
	}
	if err := workload.Register(workload.Workload{Name: "no-impl", Uses: 1}); err == nil {
		t.Error("workload without Define accepted")
	}
}

func TestResolveAndParseList(t *testing.T) {
	if _, err := workload.Resolve([]string{"tbi", "tbi"}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := workload.Resolve([]string{"nope"}); err == nil {
		t.Error("unknown name accepted")
	}
	got, err := workload.ParseList(" tbi, wedges ,")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"tbi", "wedges"}) {
		t.Errorf("ParseList = %v", got)
	}
	if _, err := workload.ParseList("tbi,nope"); err == nil {
		t.Error("ParseList accepted an unknown name")
	}
	if empty, err := workload.ParseList(" "); err != nil || empty != nil {
		t.Errorf("ParseList(blank) = %v, %v; want nil, nil", empty, err)
	}
}

// TestMeasureChargesRegisteredUses pins the contract between a
// workload's registered use count and the budget its measurement
// actually charges: a source sized exactly to Uses*eps succeeds, and
// one sized just below fails.
func TestMeasureChargesRegisteredUses(t *testing.T) {
	g := testGraph(t)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			eps := 0.5
			exact := budget.NewSource("edges", float64(w.Uses)*eps*(1+1e-9))
			edges := core.FromDataset(graph.SymmetricEdges(g), exact)
			if _, err := w.Measure(edges, 2, eps, rand.New(rand.NewSource(1))); err != nil {
				t.Fatalf("measurement failed on an exactly-sized budget: %v", err)
			}
			short := budget.NewSource("edges", float64(w.Uses)*eps*(1-1e-6))
			edges = core.FromDataset(graph.SymmetricEdges(g), short)
			if _, err := w.Measure(edges, 2, eps, rand.New(rand.NewSource(1))); err == nil {
				t.Fatal("measurement succeeded on an undersized budget: registered Uses understates the plan")
			}
		})
	}
}

// TestLoadAdoptsOnlyCanonicalEntries pins where a histogram's canonical
// release comes from. Entries already in canonical order — strictly
// ascending keys, each the encoding of its record, as Save writes them —
// are the release: Entries hands back the loaded slice, and every later
// call the same one. Entries in any other order, or spelled otherwise,
// are re-encoded and sorted, once, to exactly what the canonical ones
// give.
func TestLoadAdoptsOnlyCanonicalEntries(t *testing.T) {
	w, err := workload.Get("jdd")
	if err != nil {
		t.Fatal(err)
	}
	edges := core.FromDataset(graph.SymmetricEdges(testGraph(t)), budget.NewSource("edges", 100))
	fit, err := w.Measure(edges, 1, 1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := fit.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := fit.Entries(); len(canonical) < 2 || &again[0] != &canonical[0] {
		t.Fatalf("a measured histogram built its release twice, or released %d records", len(canonical))
	}
	reversed := append([]workload.Entry(nil), canonical...)
	slices.Reverse(reversed)
	spaced := append([]workload.Entry(nil), canonical...)
	spaced[0].Key = append(json.RawMessage(" "), spaced[0].Key...)
	for _, row := range []struct {
		name    string
		entries []workload.Entry
		adopted bool
	}{
		{"canonical", canonical, true},
		{"reversed", reversed, false},
		{"spaced", spaced, false},
	} {
		back, err := w.Load(row.entries, 1, 1.0, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Entries()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, canonical) {
			t.Errorf("%s: Entries differ from the canonical release", row.name)
		}
		if adopted := &got[0] == &row.entries[0]; adopted != row.adopted {
			t.Errorf("%s: loaded entries adopted as the release: %v, want %v", row.name, adopted, row.adopted)
		}
		if again, _ := back.Entries(); &again[0] != &got[0] {
			t.Errorf("%s: the release was built twice", row.name)
		}
	}
}

func TestHistogramRoundTripAndTypedGet(t *testing.T) {
	g := testGraph(t)
	w, err := workload.Get("tbd")
	if err != nil {
		t.Fatal(err)
	}
	src := budget.NewSource("edges", 100)
	edges := core.FromDataset(graph.SymmetricEdges(g), src)
	fit, err := w.Measure(edges, 2, 1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := fit.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("tbd measurement released nothing")
	}
	for i := 1; i < len(entries); i++ {
		if string(entries[i-1].Key) >= string(entries[i].Key) {
			t.Fatalf("entries not in canonical key order: %s >= %s", entries[i-1].Key, entries[i].Key)
		}
	}
	// Typed get through the erased interface returns the released value.
	for _, e := range entries[:3] {
		got, err := fit.Hist.Get(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if got != e.Count {
			t.Errorf("Get(%s) = %v, want %v", e.Key, got, e.Count)
		}
	}
	// Load(Entries()) reproduces the histogram: distance zero to itself,
	// positive to a perturbed copy.
	back, err := w.Load(entries, 2, 1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := fit.Hist.Distance(back.Hist)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("distance to own round trip = %v, want 0", d)
	}
	perturbed := append([]workload.Entry(nil), entries...)
	perturbed[0].Count += 2.5
	moved, err := w.Load(perturbed, 2, 1.0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if d, err = fit.Hist.Distance(moved.Hist); err != nil || math.Abs(d-2.5) > 1e-12 {
		t.Errorf("distance to perturbed copy = %v (%v), want 2.5", d, err)
	}
	// Keys that never occurred decode fine and derive their noise: the
	// same value each time, and nothing recorded.
	key, _ := json.Marshal(queries.SortTriple(91, 92, 93))
	v1, err := fit.Hist.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if v2, _ := fit.Hist.Get(key); v1 != v2 {
		t.Errorf("derived noise is not a function of the record: %v then %v", v1, v2)
	}
	if _, err := fit.Hist.Get(json.RawMessage(`"not-a-triple"`)); err == nil ||
		!strings.Contains(err.Error(), "decoding") {
		t.Errorf("malformed key accepted: %v", err)
	}
}

// TestDefineFromOneDescription is the "adding a workload is one literal"
// acceptance: squares by degree — never a registered workload — becomes
// one from its description alone, without Register. Its privacy
// multiplier is derived and charged (12, the paper's), its exact output
// is eq. 6's closed form over a brute-force enumeration of 4-cycles (an
// oracle sharing none of the query's lambdas), and its fit pipeline
// tracks the exact output across random edge swaps.
func TestDefineFromOneDescription(t *testing.T) {
	sbd := workload.Define(workload.Workload{
		Name:        "sbd",
		Description: "squares by degree: weight per sorted degree quadruple (paper Section 3.4)",
	}, workload.Builders[queries.DegQuad]{Expr: func(int) queries.Expr[queries.DegQuad] { return queries.SbD() }})
	if sbd.Uses != 12 {
		t.Fatalf("derived Uses = %d, want 12", sbd.Uses)
	}

	const eps = 0.25
	g := testGraph(t)
	src := budget.NewSource("edges", 100)
	if _, err := sbd.Measure(core.FromDataset(graph.SymmetricEdges(g), src), 0, eps, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if got := src.Spent(); math.Abs(got-12*eps) > 1e-12 {
		t.Errorf("measurement charged %v, want 12 eps = %v", got, 12*eps)
	}

	// Every 4-cycle is observed once per (start, direction): eight walks
	// (a,b,c,d), each adding SbDWeight of its own orientation.
	want := map[string]float64{}
	for _, a := range g.Nodes() {
		g.Neighbors(a, func(b graph.Node) {
			g.Neighbors(b, func(c graph.Node) {
				g.Neighbors(c, func(d graph.Node) {
					if c == a || d == b || d == a || !g.HasEdge(d, a) {
						return
					}
					da, db, dc, dd := g.Degree(a), g.Degree(b), g.Degree(c), g.Degree(d)
					key, _ := json.Marshal(queries.SortQuad(da, db, dc, dd))
					want[string(key)] += queries.SbDWeight(da, db, dc, dd)
				})
			})
		})
	}
	if len(want) == 0 {
		t.Fatal("fixture has no 4-cycles: the comparison is vacuous")
	}
	got, err := sbd.Exact(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	diffMaps(t, -1, got, want)

	p := workload.NewPlan()
	col := sbd.Collect(p, 0)
	p.Input().PushDataset(graph.SymmetricEdges(g))
	rng := rand.New(rand.NewSource(7))
	edges := g.EdgeList()
	swapped := 0
	for step := 0; step < 8; step++ {
		ei, ej := rng.Intn(len(edges)), rng.Intn(len(edges))
		a, b := edges[ei].Src, edges[ei].Dst
		c, d := edges[ej].Src, edges[ej].Dst
		if ei == ej || a == d || c == b || a == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
			continue
		}
		g.RemoveEdge(a, b)
		g.RemoveEdge(c, d)
		g.AddEdge(a, d)
		g.AddEdge(c, b)
		edges[ei] = graph.Edge{Src: a, Dst: d}
		edges[ej] = graph.Edge{Src: c, Dst: b}
		p.Input().Push(swapDiffs(a, b, c, d))

		got, err := col.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sbd.Exact(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		diffMaps(t, step, got, want)
		swapped++
	}
	if swapped == 0 {
		t.Fatal("no proposed swap was valid")
	}
}
