package synth

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/queries"
	"wpinq/internal/workload"
)

// fitEntries returns the canonical entries of one fit measurement,
// failing the test if the workload was not measured.
func fitEntries(t *testing.T, m *Measurements, name string) []workload.Entry {
	t.Helper()
	fit, ok := m.Fits[name]
	if !ok {
		t.Fatalf("fit %q missing (have %v)", name, m.FitNames())
	}
	entries, err := fit.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestMeasurementsRoundTrip(t *testing.T) {
	g := clusteredGraph(t, 80)
	m, err := Measure(g, Config{Eps: 0.5, Workloads: []string{"tbi", "tbd"}, Bucket: 5}, testRng(20))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadMeasurements(bytes.NewReader(buf.Bytes()), testRng(21))
	if err != nil {
		t.Fatal(err)
	}
	if back.Eps != m.Eps || back.TotalCost != m.TotalCost {
		t.Errorf("metadata mismatch: eps %v/%v cost %v/%v", back.Eps, m.Eps, back.TotalCost, m.TotalCost)
	}
	if got := back.Fits["tbd"].Bucket; got != 5 {
		t.Errorf("tbd bucket = %d, want 5", got)
	}
	// Released values identical.
	for i := 0; i < 50; i++ {
		if got, want := back.DegSeq.Get(i), m.DegSeq.Get(i); got != want {
			t.Fatalf("degSeq[%d] = %v, want %v", i, got, want)
		}
	}
	for i := 0; i < 30; i++ {
		if got, want := back.CCDF.Get(i), m.CCDF.Get(i); got != want {
			t.Fatalf("ccdf[%d] = %v, want %v", i, got, want)
		}
	}
	if got, want := back.NodeCount.Get(queries.Unit{}), m.NodeCount.Get(queries.Unit{}); got != want {
		t.Errorf("nodeCount = %v, want %v", got, want)
	}
	for _, name := range m.FitNames() {
		if got, want := fitEntries(t, back, name), fitEntries(t, m, name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s entries changed across round trip:\n got %v\nwant %v", name, got, want)
		}
	}
}

func TestLoadedMeasurementsSynthesize(t *testing.T) {
	// The full measure -> save -> load -> synthesize round trip.
	g := clusteredGraph(t, 80)
	m, err := Measure(g, Config{Eps: 1.0, Workloads: []string{"tbi"}}, testRng(22))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadMeasurements(bytes.NewReader(buf.Bytes()), testRng(23))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := SeedGraph(back, testRng(24))
	if err != nil {
		t.Fatal(err)
	}
	// Empty Workloads fits everything the release contains.
	res, err := Synthesize(back, seed, Config{
		Eps: 1.0, Pow: 2000, Steps: 2000,
	}, testRng(25))
	if err != nil {
		t.Fatal(err)
	}
	if res.Synthetic.Triangles() <= res.Seed.Triangles() {
		t.Errorf("loaded-measurement synthesis made no progress: %d -> %d",
			res.Seed.Triangles(), res.Synthetic.Triangles())
	}
}

func TestLoadMeasurementsRejectsBadInput(t *testing.T) {
	const header = "wpinq-measurements v2\n"
	cases := map[string]string{
		"truncated JSON":       `{`,
		"version disagreement": `{"version":99,"eps":0.1}`,
		"invalid eps":          `{"version":2,"eps":0}`,
		"unregistered workload": `{"version":2,"eps":0.1,"nodeCount":1,` +
			`"fits":[{"name":"no-such-workload","entries":[]}]}`,
	}
	for name, body := range cases {
		if _, err := LoadMeasurements(strings.NewReader(header+body), testRng(1)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSaveOmitsUnmeasured(t *testing.T) {
	g := clusteredGraph(t, 60)
	m, err := Measure(g, Config{Eps: 0.5, Workloads: []string{"tbi"}}, testRng(26))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"tbd"`) {
		t.Error("unmeasured TbD serialized")
	}
	back, err := LoadMeasurements(bytes.NewReader(buf.Bytes()), testRng(27))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Fits["tbd"]; ok {
		t.Error("loaded measurements contain tbd which was never measured")
	}
	if _, ok := back.Fits["tbi"]; !ok {
		t.Error("loaded measurements lost tbi")
	}
}

// TestMeasureSaveIsDeterministic pins the released bytes: two
// identically-seeded Measure runs over the same graph must Save
// byte-identical output — and so must a run over a graph holding the
// same edges built in another AddEdge order. The transformations
// accumulate in dataset insertion order, which graph.SymmetricEdges
// fixes from the sorted edge list; noise is assigned in canonical record
// order (core.NoisyCount); Save is canonical; and fit workloads are
// measured in sorted name order. So the whole release is a pure function
// of (edge set, config, seed) — the property the content-addressed
// measurement store builds on.
func TestMeasureSaveIsDeterministic(t *testing.T) {
	g := clusteredGraph(t, 80)
	cfg := Config{
		Eps:       0.5,
		Workloads: []string{"tbd", "jdd", "wedges", "star4-by-degree", "tbi"},
		Bucket:    5,
	}
	release := func(g *graph.Graph) []byte {
		t.Helper()
		m, err := Measure(g, cfg, testRng(99))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := release(g), release(g)
	if !bytes.Equal(a, b) {
		t.Errorf("identically-seeded Measure runs released different bytes:\n%s\n---\n%s", a, b)
	}

	// The same edge set, inserted last edge first with endpoints swapped.
	rebuilt := graph.New()
	edges := g.EdgeList()
	for i := len(edges) - 1; i >= 0; i-- {
		rebuilt.AddEdge(edges[i].Dst, edges[i].Src)
	}
	if c := release(rebuilt); !bytes.Equal(a, c) {
		t.Errorf("the same edges added in another order released different bytes:\n%s\n---\n%s", a, c)
	}
}

// TestMeasureIsBlindToNodeIDs pins the rank at the measurement boundary:
// released records carry degrees, never ids, so a graph and an
// order-preserving relabel of it that reaches negative ids and ids past
// 2^21 release the same bytes under every registered workload, and a
// graph whose ids span int32 measures like any other.
func TestMeasureIsBlindToNodeIDs(t *testing.T) {
	g, err := graph.HolmeKim(400, 3, 0.5, testRng(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eps: 0.5, Workloads: workload.Names()}
	release := func(g *graph.Graph) []byte {
		t.Helper()
		m, err := Measure(g, cfg, testRng(99))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	relabelled := graph.New()
	for _, e := range g.EdgeList() {
		relabelled.AddEdge(20000*e.Src-1_000_000, 20000*e.Dst-1_000_000)
	}
	if a, b := release(g), release(relabelled); !bytes.Equal(a, b) {
		t.Errorf("x -> 20000x - 10^6 released different bytes:\n%s\n---\n%s", a, b)
	}

	wide := graph.New()
	ids := []graph.Node{math.MinInt32, -1, 0, math.MaxInt32}
	for i, u := range ids {
		wide.AddEdge(u, ids[(i+1)%len(ids)])
	}
	release(wide)
}
