package queries

import (
	"reflect"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/plan"
)

// TestCompileBuiltinPlansUnchanged pins the compiled join plan of every
// built-in pattern. Motif weights are plan-dependent (each join
// renormalizes by data-dependent key mass), so the greedy ordering
// heuristics must not silently reorder the plans registered workloads
// were measured under.
func TestCompileBuiltinPlansUnchanged(t *testing.T) {
	cases := []struct {
		name  string
		p     Pattern
		first [2]int
		steps []planStep
	}{
		{"triangle", TrianglePattern, [2]int{0, 1}, []planStep{
			{U: 1, V: 2}, {U: 2, V: 0, Closing: true},
		}},
		{"square", SquarePattern, [2]int{0, 1}, []planStep{
			{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0, Closing: true},
		}},
		{"path3", PathPattern3, [2]int{0, 1}, []planStep{
			{U: 1, V: 2},
		}},
		{"star4", StarPattern4, [2]int{0, 1}, []planStep{
			{U: 0, V: 2}, {U: 0, V: 3},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first, steps := c.p.compile()
			if first != c.first {
				t.Fatalf("first edge = %v, want %v", first, c.first)
			}
			if !reflect.DeepEqual(steps, c.steps) {
				t.Fatalf("steps = %+v, want %+v", steps, c.steps)
			}
		})
	}
}

// TestCompileClosesCyclesEagerly demonstrates the greedy reordering on a
// pattern where declaration order is suboptimal: a diamond whose closing
// edges are declared last. The compiler must pull each cycle-closing
// shave ahead of the next extension — closing only removes partial
// embeddings, so later joins see smaller inputs.
func TestCompileClosesCyclesEagerly(t *testing.T) {
	diamond := Pattern{K: 4, Edges: [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 0}, {3, 0}}}
	if err := diamond.Validate(); err != nil {
		t.Fatal(err)
	}
	first, steps := diamond.compile()
	if first != [2]int{0, 1} {
		t.Fatalf("first edge = %v, want {0 1}", first)
	}
	want := []planStep{
		{U: 1, V: 2},
		{U: 2, V: 0, Closing: true}, // pulled ahead of the {1,3} extension
		{U: 1, V: 3},
		{U: 3, V: 0, Closing: true},
	}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("steps = %+v, want %+v (closing edges before further extensions)", steps, want)
	}
}

// TestCompilePrefersConnectedExtensions checks the extension heuristic:
// among attachable extensions, the new vertex with the most pattern
// edges into the embedded set goes first, since it unlocks closings
// soonest.
func TestCompilePrefersConnectedExtensions(t *testing.T) {
	// From embedded {0,1}: vertex 3 touches both (two edges into the
	// set), vertex 2 only touches 1 — despite {1,2} being declared first.
	p := Pattern{K: 4, Edges: [][2]int{{0, 1}, {1, 2}, {1, 3}, {0, 3}, {2, 3}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	_, steps := p.compile()
	want := []planStep{
		{U: 1, V: 3},
		{U: 0, V: 3, Closing: true},
		{U: 1, V: 2},
		{U: 2, V: 3, Closing: true},
	}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("steps = %+v, want %+v (most-anchored extension first)", steps, want)
	}
}

// TestFragmentKeys pins the canonicalization rules fusion identity
// rests on, as a fusing memo sees them: bucket widths <= 1 collapse to
// one degrees fragment, and a pattern's key reflects its edge order and
// orientation (different order means a different compiled plan, which
// must not fuse).
func TestFragmentKeys(t *testing.T) {
	m := plan.New(true)
	in := engine.NewInput[graph.Edge](engine.New(1))
	refs := func() map[string]int {
		out := map[string]int{}
		for _, f := range m.DAG() {
			out[f.Key] = f.Refs
		}
		return out
	}
	for _, bucket := range []int{0, 1, 2} {
		Stream(Degrees(bucket), m, in)
	}
	if got := refs(); len(got) != 2 || got["degrees/b=1"] != 2 || got["degrees/b=2"] != 1 {
		t.Fatalf("buckets 0, 1, 2 fused as %v, want degrees/b=1 twice and degrees/b=2 once", got)
	}
	for _, p := range []Pattern{
		{K: 3, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}},
		{K: 3, Edges: [][2]int{{0, 1}, {2, 0}, {1, 2}}},
		TrianglePattern,
	} {
		e, err := MotifCount(p)
		if err != nil {
			t.Fatal(err)
		}
		Stream(e, m, in)
	}
	got := refs()
	if got["motif-emb/k3:0-1:1-2:2-0"] != 2 {
		t.Errorf("identical patterns did not share one embedding fragment: %v", got)
	}
	if got["motif-emb/k3:0-1:2-0:1-2"] != 1 {
		t.Errorf("a pattern with another edge order fused with the triangle: %v", got)
	}
}
