package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCatalogue keeps BENCHMARK.json and the tables in
// spec.go equal, within the driver's limits.
func TestManifestMatchesCatalogue(t *testing.T) {
	m := loadManifest(t)
	all := specs(false)
	if len(m.Workloads) != len(all) || len(all) < 2 || len(all) > 8 {
		t.Fatalf("%d workloads declared, %d defined (limit 2..8)", len(m.Workloads), len(all))
	}
	for i, s := range all {
		w := m.Workloads[i]
		if w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: declared %q / %q, defined %q / %q", i, w.Name, w.Why, s.name, s.why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
	}
	check := func(kind string, declared []manifestMetric, defined []metricDef, limit int, bounded bool) {
		if len(declared) != len(defined) || len(defined) > limit {
			t.Fatalf("%s: %d declared, %d defined (limit %d)", kind, len(declared), len(defined), limit)
		}
		seen := map[string]bool{}
		for i, d := range defined {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, got, d)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s name %q is malformed or repeated", kind, d.name)
			}
			seen[d.name] = true
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound %v declared, %v defined (limit 0.25)", kind, d.name, got.Bound, d.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

// TestQuickProfile runs every workload both ways at test size: every
// declared metric must appear with its unit and every output check pass.
func TestQuickProfile(t *testing.T) {
	dir := t.TempDir()
	for _, s := range specs(true) {
		for _, traced := range []bool{false, true} {
			out, err := measure(options{workload: s.name, seed: 1, traced: traced, quick: true, outDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", s.name, traced, out.Attempted, out.Failed, out.Problems)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			for _, d := range declared {
				if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in %q, want %q", s.name, traced, d.name, m.Unit, d.unit)
				}
			}
			if !traced {
				for _, d := range declared {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", s.name, d.name, out.Metrics[d.name].Value)
					}
				}
			}
		}
		var tf traceFile
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		checkSpans(t, s.name, tf)
	}
}

// checkSpans verifies the trace file is well formed: unique IDs, every
// parent present in the same trace and enclosing its child.
func checkSpans(t *testing.T, workload string, tf traceFile) {
	t.Helper()
	byID := map[int]span{}
	for _, sp := range tf.Spans {
		if _, dup := byID[sp.ID]; dup || sp.ID == 0 {
			t.Fatalf("%s: span id %d repeated or zero", workload, sp.ID)
		}
		byID[sp.ID] = sp
	}
	for _, sp := range tf.Spans {
		if sp.End < sp.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", workload, sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok || p.Trace != sp.Trace || sp.Start < p.Start || sp.End > p.End {
			t.Errorf("%s: span %d (%s) is not inside its parent %d", workload, sp.ID, sp.Name, sp.Parent)
		}
	}
	for _, name := range []string{"incremental.step", "engine.s1.speculate", "engine.sN.score", "service.session", "core.measure"} {
		if tf.Aggregates[name].Count == 0 {
			t.Errorf("%s: no %s spans aggregated", workload, name)
		}
	}
}

// TestTracedWalkMatchesRunner is the proof that the traced loop
// measures the product's walk: on the serial executor it must end on
// the same edge list and the same score bits as mcmc.Runner.Run.
func TestTracedWalkMatchesRunner(t *testing.T) {
	s, err := specByName("walk-hot", true)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	in, err := prepare(s, 7, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	saved, err := probeSerialize(tr, in.m, 7, &out)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 100
	if err := probeExecutor(tr, s, in, saved, "incremental", -1, steps, 7, &out); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.sample("incremental.step", micros)); n != steps {
		t.Errorf("%d step spans for %d steps", n, steps)
	}
	if out.Metrics["incremental.steps_per_s"].Value <= 0 {
		t.Errorf("no untraced step rate: %+v", out.Metrics["incremental.steps_per_s"])
	}
}

func TestTailPercentile(t *testing.T) {
	mk := func(n int) sample {
		s := make(sample, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		value float64
		label string
	}{{5, 4, "p75"}, {21, 16, "p75"}, {55, 44.2, "p80"}, {110, 99.1, "p90"}, {1001, 901, "p90"}} {
		v, label := mk(c.n).tail()
		if math.Abs(v-c.value) > 1e-9 || label != c.label {
			t.Errorf("tail of 1..%d = %v %s, want %v %s", c.n, v, label, c.value, c.label)
		}
	}
}

// TestFastEnd pins which end of a sample is the fast one: the low end
// of times, the high end of rates.
func TestFastEnd(t *testing.T) {
	s := sample{9, 1, 5, 3, 7, 2, 4, 6, 8} // 1..9
	if got := s.fast(false); math.Abs(got-3) > 1e-9 {
		t.Errorf("fast end of times 1..9 = %v, want 3", got)
	}
	if got := s.fast(true); math.Abs(got-7) > 1e-9 {
		t.Errorf("fast end of rates 1..9 = %v, want 7", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "fit_s", unit: "s", better: "lower", bound: 0.10}
	higher := metricDef{name: "steps_per_s", unit: "1/s", better: "higher", bound: 0.10}
	tight := func(v float64) metric {
		return metric{Value: v, N: 5, Min: v * 0.99, Q1: v * 0.995, Q3: v * 1.005, Max: v * 1.01}
	}
	wide := func(v float64) metric {
		return metric{Value: v, N: 5, Min: v * 0.8, Q1: v * 0.9, Q3: v * 1.1, Max: v * 1.2}
	}
	for _, c := range []struct {
		d          metricDef
		base, next metric
		want       string
	}{
		{lower, tight(1), tight(1.05), "ok"},
		{lower, tight(1), tight(1.2), "REGRESSION"},
		{lower, tight(1), tight(0.8), "better"},
		{higher, tight(1000), tight(850), "REGRESSION"},
		{higher, tight(1000), tight(1200), "better"},
		{lower, wide(1), wide(1.2), "unresolved"},
		{lower, wide(1), wide(0.5), "better"},
	} {
		if got := judge(c.d, c.base, c.next); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.base.Value, c.next.Value, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, failed int, fit float64) string {
		e2e := outcome{Correct: failed == 0, Attempted: 5, Failed: failed, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			e2e.Metrics[d.name] = tight(1)
		}
		e2e.Metrics["fit_s"] = tight(fit)
		r := runReport{Seed: 1, Workloads: []workloadReport{{Name: "walk-hot", EndToEnd: e2e}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 0, 1)
	var sb strings.Builder
	if err := compare([]string{base, write("same.json", 0, 1.02)}, &sb); err != nil {
		t.Errorf("equal sets: %v\n%s", err, sb.String())
	}
	if err := compare([]string{base, write("slow.json", 0, 1.5)}, &sb); err == nil {
		t.Error("a 50% slower fit_s passed")
	}
	if err := compare([]string{base, write("failing.json", 1, 1)}, &sb); err == nil {
		t.Error("a higher failed share passed")
	}
}
