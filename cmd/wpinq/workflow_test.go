package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wpinq/internal/graph"
)

func writeTestGraph(t *testing.T, dir string) string {
	t.Helper()
	g, err := graph.HolmeKim(120, 4, 0.7, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "edges.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMeasureSynthesizeWorkflow(t *testing.T) {
	dir := t.TempDir()
	edges := writeTestGraph(t, dir)
	meas := filepath.Join(dir, "meas.json")
	synthOut := filepath.Join(dir, "synth.txt")

	if err := runMeasure([]string{"-in", edges, "-out", meas, "-eps", "1", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(meas); err != nil || st.Size() == 0 {
		t.Fatalf("measurements file missing or empty: %v", err)
	}
	if err := runSynthesize([]string{"-in", meas, "-out", synthOut, "-steps", "500", "-seed", "8"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(synthOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Error("synthetic graph has no edges")
	}
}

func TestMeasureValidation(t *testing.T) {
	if err := runMeasure(nil); err == nil {
		t.Error("missing -in accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMeasure([]string{"-in", empty}); err == nil {
		t.Error("empty edge list accepted")
	}
	if err := runMeasure([]string{"-in", filepath.Join(dir, "missing.txt")}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestNonFiniteNumbersAreRefusedBeforeAnyCharge is the CLI row of the
// service test of the same name: -eps parses NaN and Inf (strconv does),
// and a measurement taken with either must be refused — an error, no
// release written. (The CLI's ledger is private to the call, and the
// noise layer used to catch what Config.Validate now refuses first, so
// unlike the service rows this one pins behaviour, not a fix.)
func TestNonFiniteNumbersAreRefusedBeforeAnyCharge(t *testing.T) {
	dir := t.TempDir()
	edges := writeTestGraph(t, dir)
	for _, eps := range []string{"NaN", "+Inf"} {
		out := filepath.Join(dir, "meas-"+eps+".json")
		if err := runMeasure([]string{"-in", edges, "-out", out, "-eps", eps}); err == nil {
			t.Errorf("measure -eps %s succeeded", eps)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("measure -eps %s wrote a release (%v)", eps, err)
		}
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if err := runSynthesize(nil); err == nil {
		t.Error("missing -in accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSynthesize([]string{"-in", bad}); err == nil {
		t.Error("corrupt measurements accepted")
	}
}

func TestRunDispatch(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{"not-an-experiment"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}
