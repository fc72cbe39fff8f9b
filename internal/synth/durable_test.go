package synth

// Fault-injection coverage for durable Phase 2: kill a fixed-seed run
// at a checkpoint boundary, resume it in "another process" (a fresh
// master rng replaying the same load/seed prefix), and require the
// resumed run to be bit-identical to an unbroken one — same final edge
// list, same accept/reject trace, same score bits. Plus the documents
// older writers left (a retired shard count), and rejection paths: stale
// seeds, mismatched parent hashes, tampered documents.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// durableFixture measures a small clustered graph and returns the
// serialized release: every run in these tests loads the same bytes,
// exactly as service jobs load the same stored measurement.
func durableFixture(t testing.TB) []byte {
	t.Helper()
	g := clusteredGraph(t, 60)
	m, err := Measure(g, Config{Eps: 1.0, Workloads: []string{"tbi"}}, testRng(40))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stepTrace is chain 0 after one proposal: its cumulative accept count
// and its score at the bit level. One per step is the run's full
// accept/reject trace.
type stepTrace struct {
	step     int
	accepted int
	score    uint64
}

// traceSteps makes every step a progress stop and records chain 0's
// stepTrace at each.
func traceSteps(cfg *Config, trace *[]stepTrace) {
	cfg.ProgressEvery = 1
	cfg.OnProgress = func(p Progress) bool {
		accepted, score := p.Accepted, p.Score
		if len(p.Chains) > 0 {
			accepted, score = p.Chains[0].Accepted, p.Chains[0].Score
		}
		*trace = append(*trace, stepTrace{p.Step, accepted, math.Float64bits(score)})
		return true
	}
}

// runDurable executes a durable fit over the fixture bytes with master
// seed, capturing the chain-0 decision trace and every checkpoint's
// serialized form. If stopAt > 0 the run is cancelled at that boundary
// (simulating a kill: the checkpoint is written, the process dies).
func runDurable(t *testing.T, data []byte, seed int64, cfg Config, stopAt int) (*Result, []stepTrace, map[int][]byte) {
	t.Helper()
	rng := testRng(seed)
	m, err := LoadMeasurements(bytes.NewReader(data), rng)
	if err != nil {
		t.Fatal(err)
	}
	seedG, err := SeedGraph(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	var trace []stepTrace
	traceSteps(&cfg, &trace)
	ckpts := make(map[int][]byte)
	cfg.OnCheckpoint = func(ck *Checkpoint) bool {
		var buf bytes.Buffer
		if err := ck.Save(&buf); err != nil {
			t.Errorf("saving checkpoint at step %d: %v", ck.Step, err)
			return false
		}
		ckpts[ck.Step] = buf.Bytes()
		return stopAt == 0 || ck.Step != stopAt
	}
	res, err := Synthesize(m, seedG, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res, trace, ckpts
}

// resumeDurable continues a run from serialized checkpoint bytes,
// replaying the same master-rng prefix a fresh process would.
func resumeDurable(t *testing.T, data []byte, seed int64, ckBytes []byte, cfg Config) (*Result, []stepTrace, error) {
	t.Helper()
	ck, err := LoadCheckpoint(bytes.NewReader(ckBytes))
	if err != nil {
		t.Fatal(err)
	}
	rng := testRng(seed)
	m, err := LoadMeasurements(bytes.NewReader(data), rng)
	if err != nil {
		t.Fatal(err)
	}
	seedG, err := SeedGraph(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	var trace []stepTrace
	traceSteps(&cfg, &trace)
	res, err := SynthesizeResume(m, seedG, ck, cfg, rng)
	return res, trace, err
}

func TestDurableKillResumeBitIdentical(t *testing.T) {
	data := durableFixture(t)
	cases := []struct {
		name   string
		shards int
		chains int
		steps  int
		stopAt int
	}{
		// Steps deliberately not a multiple of CheckpointEvery: the final
		// partial chunk must replay identically too.
		{"serial-1chain", -1, 1, 1700, 500},
		{"1shard-1chain", 1, 1, 1700, 1000},
		{"serial-2chain", -1, 2, 1700, 500},
		{"1shard-2chain", 1, 2, 1700, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Eps:             1.0,
				Pow:             2000,
				Steps:           tc.steps,
				Shards:          tc.shards,
				Chains:          tc.chains,
				SwapEvery:       512, // deliberately not a divisor of CheckpointEvery
				CheckpointEvery: 500,
			}
			const seed = 77
			unbroken, unbrokenTrace, _ := runDurable(t, data, seed, cfg, 0)
			if len(unbrokenTrace) != tc.steps {
				t.Fatalf("unbroken trace has %d entries, want one per step (%d)", len(unbrokenTrace), tc.steps)
			}
			killed, _, ckpts := runDurable(t, data, seed, cfg, tc.stopAt)
			if !killed.Cancelled {
				t.Fatal("interrupted run did not report cancellation")
			}
			ckBytes, ok := ckpts[tc.stopAt]
			if !ok {
				t.Fatalf("no checkpoint captured at step %d (have %v)", tc.stopAt, len(ckpts))
			}
			resumed, resumedTrace, err := resumeDurable(t, data, seed, ckBytes, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Cancelled {
				t.Fatal("resumed run reported cancellation")
			}
			sameEdges(t, "resumed vs unbroken", edgeListOf(resumed.Synthetic), edgeListOf(unbroken.Synthetic))
			if got, want := math.Float64bits(resumed.Stats.FinalScore), math.Float64bits(unbroken.Stats.FinalScore); got != want {
				t.Errorf("final score bits %x, want %x", got, want)
			}
			if resumed.Stats.Accepted != unbroken.Stats.Accepted ||
				resumed.Stats.Rejected != unbroken.Stats.Rejected ||
				resumed.Stats.Invalid != unbroken.Stats.Invalid {
				t.Errorf("walk statistics diverged: resumed %+v, unbroken %+v", resumed.Stats, unbroken.Stats)
			}
			if len(resumedTrace) == 0 || len(resumedTrace) >= len(unbrokenTrace) {
				t.Fatalf("resumed trace has %d entries, unbroken %d", len(resumedTrace), len(unbrokenTrace))
			}
			suffix := unbrokenTrace[len(unbrokenTrace)-len(resumedTrace):]
			for i := range resumedTrace {
				if resumedTrace[i] != suffix[i] {
					t.Fatalf("decision trace diverges at resumed entry %d: %+v vs %+v",
						i, resumedTrace[i], suffix[i])
				}
			}
			if tc.chains > 1 && len(resumed.Chains) != tc.chains {
				t.Errorf("resumed result has %d chain stats, want %d", len(resumed.Chains), tc.chains)
			}
		})
	}
}

// TestResumeLegacySerialCheckpoint pins what a shard count means on
// disk. A run configured with the retired Shards -1 records 1 in its
// checkpoints, as every run does: no v3 document recording fewer than one
// shard was ever written, and LoadCheckpoint refuses one as stale. A
// one-shard checkpoint whose score bits the re-anchor does not reproduce
// is stale too.
func TestResumeLegacySerialCheckpoint(t *testing.T) {
	data := durableFixture(t)
	cfg := Config{Eps: 1.0, Pow: 2000, Steps: 1700, Shards: -1, CheckpointEvery: 500}
	const seed = 77
	_, _, ckpts := runDurable(t, data, seed, cfg, 500)

	if ck, err := LoadCheckpoint(bytes.NewReader(ckpts[500])); err != nil {
		t.Fatal(err)
	} else if ck.Shards != 1 {
		t.Fatalf("a Shards -1 run recorded shards %d in its checkpoint, want 1", ck.Shards)
	}
	resave := func(shards int) []byte { return resaveCheckpoint(t, ckpts[500], shards) }

	for _, shards := range []int{-1, 0} {
		doc := resave(shards)
		if !bytes.Contains(doc, []byte(fmt.Sprintf(`"shards":%d`, shards))) {
			t.Fatalf("fixture does not carry \"shards\":%d", shards)
		}
		if _, err := LoadCheckpoint(bytes.NewReader(doc)); !errors.Is(err, ErrCheckpointStale) {
			t.Errorf("a stored \"shards\":%d checkpoint: got %v, want ErrCheckpointStale", shards, err)
		}
	}

	if _, _, err := resumeDurable(t, data, seed, resave(1), Config{}); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("one-shard checkpoint with foreign score bits: got %v, want ErrCheckpointStale", err)
	}
}

// resaveCheckpoint rewrites a checkpoint as another executor would have
// left it: the given shard count, chain 0's score one ulp away.
func resaveCheckpoint(t *testing.T, doc []byte, shards int) []byte {
	t.Helper()
	ck, err := LoadCheckpoint(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	ck.Shards = shards
	ck.Chains[0].ScoreBits ^= 1
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeMultiShardCheckpoint pins the documents a sharded executor
// left: a v3 checkpoint recording two shards resumes, at one partition,
// to completion. Its score bits came from a per-process routing order, so
// they are not checked (the fixture's are one ulp off), and every
// checkpoint the resumed run writes records one shard.
func TestResumeMultiShardCheckpoint(t *testing.T) {
	data := durableFixture(t)
	cfg := Config{Eps: 1.0, Pow: 2000, Steps: 1700, CheckpointEvery: 500}
	const seed = 77
	_, _, ckpts := runDurable(t, data, seed, cfg, 500)
	var shards []int
	res, _, err := resumeDurable(t, data, seed, resaveCheckpoint(t, ckpts[500], 2), Config{
		OnCheckpoint: func(ck *Checkpoint) bool {
			shards = append(shards, ck.Shards)
			return true
		},
	})
	if err != nil {
		t.Fatalf("a \"shards\":2 checkpoint: %v", err)
	}
	if res.Cancelled || res.Stats.Steps != cfg.Steps {
		t.Fatalf("resumed run stopped at %d of %d steps (cancelled %v)", res.Stats.Steps, cfg.Steps, res.Cancelled)
	}
	if want := []int{1, 1}; fmt.Sprint(shards) != fmt.Sprint(want) {
		t.Errorf("the resumed run's checkpoints record shards %v, want %v", shards, want)
	}
}

func TestResumeRejectsWrongMasterSeed(t *testing.T) {
	data := durableFixture(t)
	cfg := Config{Eps: 1.0, Pow: 2000, Steps: 1500, CheckpointEvery: 500}
	_, _, ckpts := runDurable(t, data, 77, cfg, 500)
	if _, _, err := resumeDurable(t, data, 78, ckpts[500], Config{}); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("resume under a different master seed: got %v, want ErrCheckpointStale", err)
	}
}

// TestResumeRejectsForeignVertices pins that a checkpoint edge naming an
// id outside the seed graph — one the fit could not pack — is a stale
// checkpoint, not a panic in the plan load.
func TestResumeRejectsForeignVertices(t *testing.T) {
	data := durableFixture(t)
	cfg := Config{Eps: 1.0, Pow: 2000, Steps: 1500, CheckpointEvery: 500}
	_, _, ckpts := runDurable(t, data, 77, cfg, 500)
	for _, id := range []int32{-1, 1 << 22} {
		ck, err := LoadCheckpoint(bytes.NewReader(ckpts[500]))
		if err != nil {
			t.Fatal(err)
		}
		ck.Chains[0].Edges[0][1] = id
		var buf bytes.Buffer
		if err := ck.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, _, err := resumeDurable(t, data, 77, buf.Bytes(), Config{}); !errors.Is(err, ErrCheckpointStale) {
			t.Errorf("checkpoint edge to vertex %d: got %v, want ErrCheckpointStale", id, err)
		}
	}
}

func TestResumeRejectsMismatchedParentHash(t *testing.T) {
	data := durableFixture(t)
	cfg := Config{
		Eps: 1.0, Pow: 2000, Steps: 1500,
		CheckpointEvery: 500, ParentHash: "aaaa",
	}
	_, _, ckpts := runDurable(t, data, 77, cfg, 500)
	ck, err := LoadCheckpoint(bytes.NewReader(ckpts[500]))
	if err != nil {
		t.Fatal(err)
	}
	if ck.ParentHash != "aaaa" {
		t.Fatalf("checkpoint parent hash = %q, want the configured one", ck.ParentHash)
	}
	if _, _, err := resumeDurable(t, data, 77, ckpts[500], Config{ParentHash: "bbbb"}); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("resume against a different parent: got %v, want ErrCheckpointStale", err)
	}
	// The matching parent hash is accepted.
	if _, _, err := resumeDurable(t, data, 77, ckpts[500], Config{ParentHash: "aaaa"}); err != nil {
		t.Fatalf("resume with the matching parent failed: %v", err)
	}
}

func TestLoadCheckpointRejectsCorruption(t *testing.T) {
	data := durableFixture(t)
	cfg := Config{Eps: 1.0, Pow: 2000, Steps: 1000, CheckpointEvery: 500}
	_, _, ckpts := runDurable(t, data, 77, cfg, 500)
	good := ckpts[500]

	if _, err := LoadCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint\n{}"))); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("wpinq-checkpoint v999\n{}"))); err == nil {
		t.Error("unsupported version accepted")
	}
	// A document headed by an earlier version was written by an earlier
	// driver — v1's rng positions count draws this one never makes, v2's
	// walk scored against its observation history — so it is stale, not
	// resumable onto a different trace.
	v2, err := os.ReadFile(filepath.Join("testdata", "checkpoint.v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string][]byte{
		"a v1 header":               bytes.Replace(good, []byte("wpinq-checkpoint v3\n"), []byte("wpinq-checkpoint v1\n"), 1),
		"the last v2 driver's file": v2,
	} {
		if _, err := LoadCheckpoint(bytes.NewReader(doc)); bytes.Equal(doc, good) || !errors.Is(err, ErrCheckpointStale) {
			t.Errorf("%s: got %v, want ErrCheckpointStale", name, err)
		}
	}
	// Flip one digit inside the JSON document: the self-hash must catch it.
	tampered := bytes.Replace(good, []byte(`"step":500`), []byte(`"step":501`), 1)
	if bytes.Equal(tampered, good) {
		t.Fatal("tamper target not found in serialized checkpoint")
	}
	if _, err := LoadCheckpoint(bytes.NewReader(tampered)); err == nil {
		t.Error("tampered checkpoint accepted")
	}
}

// TestLoadCheckpointRefusesBadSchedule pins that a swap schedule no fit
// writes is refused at load, with a plain error: a parity outside {0, 1}
// or a ladder that is not a permutation of the chain indices would index
// out of range in the resumed fit's first swap round, and a daemon
// re-queueing the job at boot would die on it at every boot.
func TestLoadCheckpointRefusesBadSchedule(t *testing.T) {
	data := durableFixture(t)
	cfg := Config{Eps: 1.0, Pow: 2000, Steps: 1000, Chains: 2, SwapEvery: 250, CheckpointEvery: 500}
	_, _, ckpts := runDurable(t, data, 77, cfg, 500)
	for name, damage := range map[string]func(*Checkpoint){
		"parity -1":          func(ck *Checkpoint) { ck.Parity = -1 },
		"parity 2":           func(ck *Checkpoint) { ck.Parity = 2 },
		"repeated rung":      func(ck *Checkpoint) { ck.Ladder = []int{0, 0} },
		"chain out of range": func(ck *Checkpoint) { ck.Ladder = []int{0, 2} },
		"missing ladder":     func(ck *Checkpoint) { ck.Ladder = nil },
	} {
		ck, err := LoadCheckpoint(bytes.NewReader(ckpts[500]))
		if err != nil {
			t.Fatal(err)
		}
		damage(ck)
		var buf bytes.Buffer
		if err := ck.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(&buf); err == nil || errors.Is(err, ErrCheckpointStale) {
			t.Errorf("%s: got %v, want a plain refusal", name, err)
		}
	}
}

func TestDurableConfigValidation(t *testing.T) {
	if err := (&Config{Eps: 1, Workloads: []string{"tbi"}, CheckpointEvery: -1}).Validate(); err == nil {
		t.Error("negative CheckpointEvery accepted")
	}
}
