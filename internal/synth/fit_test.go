package synth

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"wpinq/internal/graph"
	"wpinq/internal/mcmc"
	"wpinq/internal/workload"
)

// multiRecordFixture serializes a release whose fit workloads have
// many-record domains (jdd + tbd at bucket 2), so a sharp walk gives
// weight to records the release never contained and the fit has to derive
// their noise.
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
// result's per-workload residuals, and Stats.FinalScore) equals the score
// of the final graph loaded into a fresh plan attached to the *same*
// Measurements value — one chain, or three fitting those measurements at
// once, checkpointed or not, from each row's master seed (rows named
// after the shard counts the test once ran at). That holds only if the
// score is a function of the graph: a sink that keeps the observations of
// proposals it aborted, or of the other chains, carries terms no load of
// the final graph re-derives.
func TestFitReconcilesWithCallersMeasurements(t *testing.T) {
	data := multiRecordFixture(t)
	for _, chains := range []int{1, 3} {
		for _, every := range []int{0, 200} {
			for _, row := range []struct {
				name string
				seed int64
			}{
				{"shards=1", 701},
				{"shards=4", 1701},
			} {
				name := fmt.Sprintf("every=%d/%s", every, row.name)
				if chains > 1 {
					name = fmt.Sprintf("chains=%d/%s", chains, name)
				}
				t.Run(name, func(t *testing.T) {
					rng := testRng(row.seed)
					m, err := LoadMeasurements(bytes.NewReader(data), rng)
					if err != nil {
						t.Fatal(err)
					}
					seed, err := SeedGraph(m, rng)
					if err != nil {
						t.Fatal(err)
					}
					released := m.Fits["tbd"].Hist.Len() + m.Fits["jdd"].Hist.Len()
					results := make([]*Result, chains)
					errs := make([]error, chains)
					heldDerived := make([]bool, chains)
					var wg sync.WaitGroup
					for i := range results {
						chainRng := rng
						if i > 0 {
							chainRng = testRng(row.seed + int64(i))
						}
						wg.Add(1)
						go func() {
							defer wg.Done()
							results[i], errs[i] = Synthesize(m, seed.Clone(), Config{
								Eps: m.Eps, Pow: 1e4, Steps: 1600, CheckpointEvery: every, ProgressEvery: 100,
								OnProgress: func(p Progress) bool {
									bins := 0
									for _, r := range p.Residuals {
										bins += r.Bins
									}
									heldDerived[i] = heldDerived[i] || bins > released
									return true
								},
							}, chainRng)
						}()
					}
					wg.Wait()
					if after := m.Fits["tbd"].Hist.Len() + m.Fits["jdd"].Hist.Len(); after != released {
						t.Errorf("the fit wrote into the caller's histograms: %d -> %d records", released, after)
					}
					for i, res := range results {
						if errs[i] != nil {
							t.Fatal(errs[i])
						}
						if !heldDerived[i] {
							t.Errorf("chain %d: no sink held a never-released record at any stop: the comparison is vacuous", i)
						}
						var maintained float64
						for _, r := range res.Residuals {
							maintained += r.Weighted
						}
						if maintained != res.Stats.FinalScore {
							t.Errorf("chain %d: residuals sum to %v, Stats.FinalScore is %v", i, maintained, res.Stats.FinalScore)
						}
						plan := workload.NewPlan()
						for _, name := range m.FitNames() {
							if err := m.Fits[name].Attach(plan, m.Eps); err != nil {
								t.Fatal(err)
							}
						}
						mcmc.NewGraphState(res.Synthetic, plan.Input())
						scratch := plan.Scorer().Score()
						if math.Abs(maintained-scratch) > 1e-6*math.Max(math.Abs(maintained), math.Abs(scratch)) {
							t.Errorf("chain %d: maintained score %v != from-scratch score %v over the caller's measurements", i, maintained, scratch)
						}
					}
				})
			}
		}
	}
}

// TestProgressStopsAreTheUnion pins where a fit can be observed: with
// OnProgress set, reports arrive at every multiple of ProgressEvery and
// of CheckpointEvery, and once at the end — at ProgressEvery 1, once per step — and observing changes
// nothing: the final edge list is the one the unobserved run produces.
func TestProgressStopsAreTheUnion(t *testing.T) {
	data := durableFixture(t)
	for _, tc := range []struct {
		name  string
		every int
	}{
		{"chains=1", 300},
		{"every=1", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Eps: 1.0, Pow: 500, Steps: 1000,
				ProgressEvery: tc.every, CheckpointEvery: 250,
			}
			want := map[int]bool{1000: true}
			for _, every := range []int{tc.every, 250} {
				for s := every; s < cfg.Steps; s += every {
					want[s] = true
				}
			}
			var lastStop []graph.Edge // Progress.Synthetic at the final stop
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
						if p.Steps != cfg.Steps {
							t.Errorf("progress at %d: steps %d, want %d", p.Step, p.Steps, cfg.Steps)
						}
						if p.Step == cfg.Steps {
							lastStop = edgeListOf(p.Synthetic())
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
			// The last stop sees the graph the fit returns.
			sameEdges(t, "last stop vs result", lastStop, edgeListOf(observed.Synthetic))
			plain, _ := run(false)
			sameEdges(t, "observed vs unobserved", edgeListOf(observed.Synthetic), edgeListOf(plain.Synthetic))
			if observed.Stats != plain.Stats {
				t.Errorf("observing changed the walk: %+v vs %+v", observed.Stats, plain.Stats)
			}
		})
	}
}

// TestConcurrentFitsShareOneRelease runs two fits at once on one
// *Measurements fresh from Measure, whose histograms build their release
// in canonical order at its first use — here, two attaches racing for
// it. Under -race the release must be built once and only read after;
// each fit must end on the edge list and score the same fit run alone
// ends on.
func TestConcurrentFitsShareOneRelease(t *testing.T) {
	m, err := Measure(clusteredGraph(t, 80), Config{Eps: 1, Workloads: []string{"jdd", "wedges"}}, testRng(40))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := SeedGraph(m, testRng(41))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Eps: m.Eps, Pow: 1e4, Steps: 300}
	var (
		wg      sync.WaitGroup
		results [2]*Result
		errs    [2]error
	)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Synthesize(m, seed.Clone(), cfg, testRng(42))
		}()
	}
	wg.Wait()
	alone, err := Synthesize(m, seed.Clone(), cfg, testRng(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(res.Synthetic.EdgeList(), alone.Synthetic.EdgeList()) || res.Stats.FinalScore != alone.Stats.FinalScore {
			t.Errorf("fit %d, run beside another, ended elsewhere than the same fit run alone", i)
		}
	}
	for _, name := range m.FitNames() {
		a, errA := m.Fits[name].Entries()
		b, errB := m.Fits[name].Entries()
		if errA != nil || errB != nil || len(a) == 0 || &a[0] != &b[0] {
			t.Errorf("%s: the release was not built once (%v, %v, %d records)", name, errA, errB, len(a))
		}
	}
}
