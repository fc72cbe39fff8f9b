package synth

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// addWithDamage seeds a fuzz target with a well-formed document and the
// two damages a store sees first: a write cut short, and one flipped bit.
func addWithDamage(f *testing.F, doc []byte) {
	f.Add(doc)
	f.Add(doc[:len(doc)*2/3])
	flipped := bytes.Clone(doc)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
}

// FuzzLoadMeasurements feeds LoadMeasurements arbitrary bytes — a stored
// release is read back at every boot and by every job — and requires an
// error or a release that serializes again and reloads.
func FuzzLoadMeasurements(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "measurements.v2.golden"))
	if err != nil {
		f.Fatal(err)
	}
	addWithDamage(f, golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadMeasurements(bytes.NewReader(data), testRng(1))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("a loaded release does not save: %v", err)
		}
		if _, err := LoadMeasurements(&buf, testRng(2)); err != nil {
			t.Fatalf("a saved release does not reload: %v", err)
		}
	})
}

// FuzzLoadCheckpoint does the same for LoadCheckpoint, which boot
// recovery runs over whatever a killed daemon left in its store — a
// document of the previous format among it (testdata/checkpoint.v2.golden,
// written by the last v2 driver), which must be refused as stale however
// its body is damaged.
func FuzzLoadCheckpoint(f *testing.F) {
	v2, err := os.ReadFile(filepath.Join("testdata", "checkpoint.v2.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	rng := testRng(77)
	m, err := LoadMeasurements(bytes.NewReader(durableFixture(f)), rng)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := SeedGraph(m, rng)
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	cfg := Config{Eps: 1, Pow: 2000, Steps: 400, Shards: 1, Chains: 2, SwapEvery: 100, CheckpointEvery: 200}
	cfg.OnCheckpoint = func(ck *Checkpoint) bool {
		if err := ck.Save(&saved); err != nil {
			f.Fatal(err)
		}
		return false // one checkpoint is enough
	}
	if _, err := Synthesize(m, seed, cfg, rng); err != nil || saved.Len() == 0 {
		f.Fatalf("no checkpoint to seed the corpus with (err=%v)", err)
	}
	addWithDamage(f, saved.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := LoadCheckpoint(bytes.NewReader(data))
		if bytes.HasPrefix(data, []byte("wpinq-checkpoint v2\n")) && !errors.Is(err, ErrCheckpointStale) {
			t.Fatalf("a v2-headed document was not refused as stale: %v", err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ck.Save(&buf); err != nil {
			t.Fatalf("a loaded checkpoint does not save: %v", err)
		}
		if _, err := LoadCheckpoint(&buf); err != nil {
			t.Fatalf("a saved checkpoint does not reload: %v", err)
		}
	})
}
