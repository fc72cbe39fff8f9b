package mcmc

import (
	"math/rand"
	"testing"

	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/queries"
	"wpinq/internal/weighted"
)

func testRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// newEdgeInput returns an engine's edge input: what a test
// that only needs an input builds over.
func newEdgeInput() *engine.Input[graph.Edge] {
	return engine.NewInput[graph.Edge](engine.New())
}

// inverse returns the proposal that swaps p's edges back.
func inverse(p Proposal) Proposal {
	return Proposal{I: p.I, J: p.J, A: p.A, B: p.D, C: p.C, D: p.B}
}

func ringGraph(n int) *graph.Graph {
	g := graph.New()
	for i := graph.Node(0); int(i) < n; i++ {
		g.AddEdge(i, graph.Node((int(i)+1)%n))
	}
	return g
}

func TestGraphStateSwapKeepsInvariants(t *testing.T) {
	rng := testRng(1)
	g, err := graph.HolmeKim(60, 3, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := newEdgeInput()
	coll := incremental.Collect[graph.Edge](in)
	s := NewGraphState(g, in)
	degreesBefore := s.Graph().Degrees()
	edgesBefore := s.Graph().NumEdges()

	applied := 0
	for i := 0; i < 500; i++ {
		p, ok := s.Propose(rng)
		if !ok {
			continue
		}
		s.Apply(p)
		applied++
	}
	if applied == 0 {
		t.Fatal("no swaps applied")
	}
	if s.Graph().NumEdges() != edgesBefore {
		t.Errorf("edge count changed: %d -> %d", edgesBefore, s.Graph().NumEdges())
	}
	for v, d := range degreesBefore {
		if s.Graph().Degree(v) != d {
			t.Fatalf("degree of %d changed: %d -> %d", v, d, s.Graph().Degree(v))
		}
	}
	// The dataflow's view of the edges equals the graph's exactly.
	want := graph.SymmetricEdges(s.Graph())
	if got := coll.Snapshot(); !weighted.Equal(got, want, 1e-9) {
		t.Error("dataflow edge dataset diverged from graph after swaps")
	}
}

func TestGraphStateApplyRevert(t *testing.T) {
	rng := testRng(2)
	g := ringGraph(12)
	in := newEdgeInput()
	coll := incremental.Collect[graph.Edge](in)
	s := NewGraphState(g, in)
	before := coll.Snapshot()

	p, ok := s.Propose(rng)
	for !ok {
		p, ok = s.Propose(rng)
	}
	s.Apply(p)
	s.Apply(inverse(p))
	after := coll.Snapshot()
	if before.Len() != after.Len() {
		t.Fatalf("record count changed after revert: %d -> %d", before.Len(), after.Len())
	}
	before.Range(func(e graph.Edge, w float64) {
		if after.Weight(e) != w {
			t.Fatalf("edge %v weight %v -> %v after revert", e, w, after.Weight(e))
		}
	})
	if !s.Graph().HasEdge(p.A, p.B) || !s.Graph().HasEdge(p.C, p.D) {
		t.Error("graph not restored after revert")
	}
}

func TestProposeRejectsDegenerate(t *testing.T) {
	// A triangle admits no valid swap: any two edges share an endpoint.
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	in := newEdgeInput()
	s := NewGraphState(g, in)
	rng := testRng(3)
	for i := 0; i < 200; i++ {
		if _, ok := s.Propose(rng); ok {
			t.Fatal("triangle should admit no valid swap")
		}
	}
	// A single edge cannot swap either.
	one := graph.New()
	one.AddEdge(0, 1)
	s2 := NewGraphState(one, newEdgeInput())
	if _, ok := s2.Propose(rng); ok {
		t.Error("single edge should admit no swap")
	}
}

func TestRunnerValidation(t *testing.T) {
	in := newEdgeInput()
	s := NewGraphState(ringGraph(8), in)
	sc := incremental.NewScorer()
	if _, err := NewRunner(nil, sc, Config{Pow: 1}, testRng(4)); err == nil {
		t.Error("nil state accepted")
	}
	if _, err := NewRunner(s, nil, Config{Pow: 1}, testRng(4)); err == nil {
		t.Error("nil scorer accepted")
	}
	if _, err := NewRunner(s, sc, Config{Pow: 0}, testRng(4)); err == nil {
		t.Error("non-positive pow accepted")
	}
}

// buildTbIFixture wires a TbI pipeline and returns (state, scorer) fitting
// the given observed triangle signal.
func buildTbIFixture(g *graph.Graph, observed float64, eps float64) (*GraphState, *incremental.Scorer) {
	in := newEdgeInput()
	stream := queries.Stream(queries.TbI(), nil, in)
	sink := incremental.NewNoisyCountSink[queries.Unit](
		stream,
		incremental.MapObservations[queries.Unit]{{}: observed},
		[]queries.Unit{{}},
		eps)
	state := NewGraphState(g, in)
	return state, incremental.NewScorer(sink)
}

func TestMCMCIncreasesTriangleFit(t *testing.T) {
	// Start from a triangle-poor random graph and fit toward a large
	// triangle signal: MCMC must increase the number of triangles.
	rng := testRng(5)
	g, err := graph.ErdosRenyi(60, 180, rng)
	if err != nil {
		t.Fatal(err)
	}
	start := g.Triangles()
	state, scorer := buildTbIFixture(g, 60.0, 0.5)
	r, err := NewRunner(state, scorer, Config{Pow: 500, RecomputeEvery: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Run(4000)
	if st.Accepted == 0 {
		t.Fatal("no proposals accepted")
	}
	end := state.Graph().Triangles()
	if end <= start {
		t.Errorf("triangles %d -> %d; MCMC should add triangles to fit the signal", start, end)
	}
	if r.Score() >= scorer.Recompute()+1e-6 {
		t.Error("maintained score above recomputed score")
	}
}

func TestMCMCScoreDecreases(t *testing.T) {
	rng := testRng(6)
	g, err := graph.ErdosRenyi(50, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	state, scorer := buildTbIFixture(g, 40.0, 0.5)
	initial := scorer.Score()
	r, err := NewRunner(state, scorer, Config{Pow: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Run(3000)
	if st.FinalScore >= initial {
		t.Errorf("score %v -> %v; should improve", initial, st.FinalScore)
	}
}

func TestMCMCPreservesDegreeSequence(t *testing.T) {
	rng := testRng(7)
	g, err := graph.HolmeKim(80, 3, 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	wantSeq := g.DegreeSequence()
	state, scorer := buildTbIFixture(g, 10.0, 0.5)
	r, err := NewRunner(state, scorer, Config{Pow: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(2000)
	gotSeq := state.Graph().DegreeSequence()
	for i := range wantSeq {
		if gotSeq[i] != wantSeq[i] {
			t.Fatalf("degree sequence changed at %d: %d -> %d", i, wantSeq[i], gotSeq[i])
		}
	}
}

func TestStepSingle(t *testing.T) {
	rng := testRng(9)
	g, err := graph.ErdosRenyi(30, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	state, scorer := buildTbIFixture(g, 5.0, 0.5)
	r, err := NewRunner(state, scorer, Config{Pow: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Step()
	}
	// The maintained score must track the scorer.
	if d := r.Score() - scorer.Score(); d > 1e-9 || d < -1e-9 {
		t.Errorf("runner score %v != scorer %v", r.Score(), scorer.Score())
	}
}
