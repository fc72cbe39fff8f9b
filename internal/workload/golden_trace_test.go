package workload_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the committed golden trace files from this run.
// The goldens are the pooled-vs-unpooled twin of the memory-model work:
// they were generated before buffer pooling and record interning landed,
// so a pooled hot path that perturbs a single accept/reject decision, an
// emitted record, or a float accumulation order fails these tests.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden MCMC trace files")

// goldenNames are the workloads the golden walks fit: the same
// motif-free set the fused-vs-unfused differential suite traces.
// motif-star4's embedding chain multiplies per-step work by ~d^3 and
// would push a 1500-step walk past any sane test budget without adding
// operator coverage (its joins and group-bys are the ones tbi/tbd/jdd
// already exercise).
var goldenNames = []string{"tbi", "tbd", "jdd", "wedges"}

// goldenTrace is the serialized form of a fuseTrace. Scores are compared
// to 1e-9 relative (construction-order float drift); everything else is
// exact.
type goldenTrace struct {
	Decisions   string    `json:"decisions"`
	Scores      []float64 `json:"scores"`
	Edges       string    `json:"edges"`
	InputPushes uint64    `json:"input_pushes"`
	MemoPushes  uint64    `json:"memo_pushes"`
}

// TestGoldenTrace pins the full seeded 1500-step fused 4-workload walk
// against the committed trace file: a fit is bit-reproducible across
// processes. Its one row keeps the name of the layout the walk was once
// asked for at (test ids outlive what they named) and replays the walk
// twice: the second also checks that a walk repeated in one process
// reproduces the file to the last bit.
func TestGoldenTrace(t *testing.T) {
	const steps = 1500
	fits := measureFits(t, testGraph(t), goldenNames, 2, 1.0, 11)
	t.Run("serial", func(t *testing.T) {
		for range 2 {
			tr := runFuseTrace(t, fits, 99, true, steps)
			got := goldenTrace{
				Decisions:   tr.decisions,
				Scores:      tr.scores,
				Edges:       tr.edges,
				InputPushes: tr.inputPushes,
				MemoPushes:  tr.memoPushes,
			}
			path := filepath.Join("testdata", "golden_trace_engine-1.json")
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d steps, %d accepted)", path, steps, tr.stats.Accepted)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			var want goldenTrace
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if got.Decisions != want.Decisions {
				i := 0
				for i < len(got.Decisions) && i < len(want.Decisions) && got.Decisions[i] == want.Decisions[i] {
					i++
				}
				t.Fatalf("decision stream diverges from golden at step %d", i)
			}
			if got.Edges != want.Edges {
				t.Fatalf("final edge list differs from golden after identical decisions")
			}
			if len(got.Scores) != len(want.Scores) {
				t.Fatalf("score count %d, golden %d", len(got.Scores), len(want.Scores))
			}
			for i := range got.Scores {
				if !scoresClose(got.Scores[i], want.Scores[i]) {
					t.Fatalf("step %d: score %v, golden %v", i, got.Scores[i], want.Scores[i])
				}
			}
			if got.InputPushes != want.InputPushes {
				t.Errorf("input pushes %d, golden %d", got.InputPushes, want.InputPushes)
			}
			if got.MemoPushes != want.MemoPushes {
				t.Errorf("fragment batch deliveries %d, golden %d", got.MemoPushes, want.MemoPushes)
			}
		}
	})
}
