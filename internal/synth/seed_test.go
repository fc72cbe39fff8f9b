package synth

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"wpinq/internal/core"
	"wpinq/internal/graph"
	"wpinq/internal/queries"
)

// edgeListHash fingerprints a graph's sorted edge list.
func edgeListHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	for _, e := range g.EdgeList() {
		fmt.Fprintf(h, "%d,%d;", e.Src, e.Dst)
	}
	return h.Sum64()
}

// TestSeedGraphPinned pins the exact seed graph — grid-path regression,
// graphical rounding, Havel-Hakimi, mixing — for fixed (graph, measurement
// seed, seed-graph rng) tuples. Each stage is a function of its input under
// a stated rule: the regression's tie rule is FuzzGridPath's, Havel-Hakimi
// wires under (residual degree descending, vertex id ascending), the mixer
// draws three numbers an attempt over edges in EdgeList order. Every
// fixed-seed fit (CLI round trips, durable resume) starts from these
// graphs, so a kernel that moves one of them re-seeds the suite and must
// re-record these hashes knowingly.
func TestSeedGraphPinned(t *testing.T) {
	for _, tc := range []struct {
		n, m      int
		eps       float64
		seed      int64
		wantNodes int
		want      uint64
	}{
		{300, 4, 0.1, 21, 334, 0x91b2592d1ca70cc6},   // serve-durable's size
		{400, 3, 0.5, 22, 393, 0xe109103c56dbd7f0},   // walk-hot's size, less noise
		{1000, 3, 1.0, 23, 1000, 0x244a532d7efea0dd}, // near-clean measurements: tie-heavy grid
		{2000, 5, 0.1, 24, 2007, 0x197354cf6b7100dc}, // walk-cold's size
		{4000, 5, 0.1, 25, 4029, 0xa0ffbbd6dfa4a370}, // bulk-load's size
	} {
		g, err := graph.HolmeKim(tc.n, tc.m, 0.5, testRng(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		// One rng for both calls, as bench and the CLI workflow use it.
		rng := testRng(tc.seed + 100)
		m, err := Measure(g, Config{Eps: tc.eps, Workloads: []string{"jdd"}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := SeedGraph(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got := seed.NumNodes(); got != tc.wantNodes {
			t.Errorf("HolmeKim(%d,%d) seed %d: %d nodes, want %d", tc.n, tc.m, tc.seed, got, tc.wantNodes)
		}
		if got := edgeListHash(seed); got != tc.want {
			t.Errorf("HolmeKim(%d,%d) seed %d: edge-list hash %#x, want %#x", tc.n, tc.m, tc.seed, got, tc.want)
		}
	}
}

// TestSeedRefusalKeepsErrNotGraphical: the rounding hands Havel-Hakimi a
// graphical sequence, so a refusal there is a bug in one of the two — and
// a caller can tell it from a regression failure with errors.Is.
func TestSeedRefusalKeepsErrNotGraphical(t *testing.T) {
	for _, degs := range [][]int{{3, 1}, {1, 1, 1}} {
		if _, err := seedFromDegrees(degs, len(degs), testRng(1)); !errors.Is(err, graph.ErrNotGraphical) {
			t.Errorf("seedFromDegrees(%v): error %v, want one wrapping graph.ErrNotGraphical", degs, err)
		}
	}
	g, err := seedFromDegrees([]int{1, 1}, 5, testRng(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 1 {
		t.Errorf("padded seed has %d nodes and %d edges, want 5 and 1", g.NumNodes(), g.NumEdges())
	}
}

// TestSeedGraphRefusesUnpackableNodeCount pins SeedGraph's typed refusal:
// a release (read from outside, as `wpinq synthesize -in` reads one) whose
// node-count estimate exceeds the 2^21 vertices the fit can pack is
// ErrNodeRange, before the regression allocates its width-sized grid.
func TestSeedGraphRefusesUnpackableNodeCount(t *testing.T) {
	hist := func(counts map[int]float64) *core.Histogram[int] {
		h, err := core.HistogramFromMaterialized(counts, 1, testRng(1))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	nodes, err := core.HistogramFromMaterialized(map[queries.Unit]float64{{}: 1 << 21}, 1, testRng(1))
	if err != nil {
		t.Fatal(err)
	}
	m := &Measurements{Eps: 1, DegSeq: hist(map[int]float64{0: 3}), CCDF: hist(map[int]float64{0: 3}), NodeCount: nodes}
	if n := m.EstimatedNodes(); n != 1<<22 {
		t.Fatalf("estimate %d, want 2^22", n)
	}
	if _, err := SeedGraph(m, testRng(2)); !errors.Is(err, queries.ErrNodeRange) {
		t.Fatalf("SeedGraph with 2^22 estimated nodes: %v, want ErrNodeRange", err)
	}
}
