package synth

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"wpinq/internal/mcmc"
	"wpinq/internal/workload"
)

// multiRecordFixture serializes a release whose fit workloads have
// many-record domains (jdd + tbd at bucket 2), so a sharp walk's aborted
// proposals touch records the release never contained and the fit has to
// draw their noise lazily.
func multiRecordFixture(t *testing.T) []byte {
	t.Helper()
	g := clusteredGraph(t, 120)
	m, err := Measure(g, Config{Eps: 1.0, Workloads: []string{"jdd", "tbd"}, Bucket: 2}, testRng(700))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFitReconcilesWithCallersMeasurements is the paper's
// incremental-equals-from-scratch property at the synth surface: the
// score the dataflow maintained through the walk (the sum of the
// result's per-workload residuals) equals the score of the final graph
// loaded into a fresh plan attached to the *same* Measurements value.
// That holds only if the fit scored against the caller's histograms — a
// driver that fits private copies leaves its lazily drawn observations
// where the caller never sees them, and the two scores part by a quarter.
func TestFitReconcilesWithCallersMeasurements(t *testing.T) {
	data := multiRecordFixture(t)
	for _, every := range []int{0, 200} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("every=%d/shards=%d", every, shards), func(t *testing.T) {
				rng := testRng(701)
				m, err := LoadMeasurements(bytes.NewReader(data), rng)
				if err != nil {
					t.Fatal(err)
				}
				seed, err := SeedGraph(m, rng)
				if err != nil {
					t.Fatal(err)
				}
				before := m.Fits["tbd"].Hist.Len() + m.Fits["jdd"].Hist.Len()
				res, err := Synthesize(m, seed, Config{
					Eps: m.Eps, Pow: 1e4, Steps: 1600, Shards: shards, CheckpointEvery: every,
				}, rng)
				if err != nil {
					t.Fatal(err)
				}
				if after := m.Fits["tbd"].Hist.Len() + m.Fits["jdd"].Hist.Len(); after <= before {
					t.Errorf("the fit drew no unseen record (%d -> %d materialized): the comparison is vacuous", before, after)
				}
				var maintained float64
				for _, r := range res.Residuals {
					maintained += r.Weighted
				}
				plan := workload.NewPlan(shards)
				for _, name := range m.FitNames() {
					if err := m.Fits[name].Attach(plan, m.Eps); err != nil {
						t.Fatal(err)
					}
				}
				mcmc.NewGraphState(res.Synthetic, plan.Input())
				scratch := plan.Scorer().Score()
				if math.Abs(maintained-scratch) > 1e-6*math.Max(math.Abs(maintained), math.Abs(scratch)) {
					t.Errorf("maintained score %v != from-scratch score %v over the caller's measurements", maintained, scratch)
				}
			})
		}
	}
}

// TestProgressStopsAreTheUnion pins where a fit can be observed: with
// OnProgress set, reports arrive at every multiple of ProgressEvery, of
// SwapEvery (more than one chain) and of CheckpointEvery, and once at the
// end — and observing changes nothing: the final edge list is the one the
// unobserved run produces.
func TestProgressStopsAreTheUnion(t *testing.T) {
	data := durableFixture(t)
	for _, chains := range []int{1, 3} {
		t.Run(fmt.Sprintf("chains=%d", chains), func(t *testing.T) {
			cfg := Config{
				Eps: 1.0, Pow: 500, Steps: 1000, Shards: 1, Chains: chains,
				ProgressEvery: 300, SwapEvery: 128, CheckpointEvery: 250,
			}
			want := map[int]bool{1000: true}
			for _, every := range []int{300, 250} {
				for s := every; s < cfg.Steps; s += every {
					want[s] = true
				}
			}
			if chains > 1 {
				for s := 128; s < cfg.Steps; s += 128 {
					want[s] = true
				}
			}
			run := func(observe bool) (*Result, []int) {
				rng := testRng(710)
				m, err := LoadMeasurements(bytes.NewReader(data), rng)
				if err != nil {
					t.Fatal(err)
				}
				seed, err := SeedGraph(m, rng)
				if err != nil {
					t.Fatal(err)
				}
				var stops []int
				c := cfg
				if observe {
					c.OnProgress = func(p Progress) bool {
						stops = append(stops, p.Step)
						if (len(p.Chains) > 0) != (chains > 1) || p.Steps != cfg.Steps {
							t.Errorf("progress at %d: %d chain views for %d chains, steps %d", p.Step, len(p.Chains), chains, p.Steps)
						}
						return true
					}
				}
				res, err := Synthesize(m, seed, c, rng)
				if err != nil {
					t.Fatal(err)
				}
				return res, stops
			}
			observed, stops := run(true)
			if len(stops) != len(want) {
				t.Errorf("reported at %v, want exactly the %d stops of %v", stops, len(want), want)
			}
			for i, s := range stops {
				if !want[s] || i > 0 && s <= stops[i-1] {
					t.Errorf("report %d at step %d: not a stop, or out of order (%v)", i, s, stops)
				}
			}
			plain, _ := run(false)
			sameEdges(t, "observed vs unobserved", edgeListOf(observed.Synthetic), edgeListOf(plain.Synthetic))
			if observed.Stats != plain.Stats {
				t.Errorf("observing changed the walk: %+v vs %+v", observed.Stats, plain.Stats)
			}
		})
	}
}
