package synth

// The fit checkpoint format (`wpinq-checkpoint v3`): everything a fresh
// process needs to continue a Phase 2 fit bit-identically from a
// re-anchor boundary. See DESIGN.md "Durable jobs" for the recovery
// contract and fit.go for the re-anchor discipline that makes the
// captured state sufficient.
//
// What is serialized is deliberately small: the per-chain edge lists in
// live order, each chain's rng (seed, position), the pow/ladder
// assignment, and the step count. Everything else — the graphs' isolated
// nodes, the dataflow operators' float state, the sinks' records and
// their derived-noise values — is a deterministic function of those plus
// the measurement, and is rebuilt rather than stored.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"wpinq/internal/graph"
)

// checkpointHeader is the first token of the format's header line.
const checkpointHeader = "wpinq-checkpoint"

// checkpointVersion is the current checkpoint format version. Earlier
// versions are refused, not resumed onto another trace: a v1 rng_pos
// counts per-workload salt draws this driver never makes, and a v2
// document carries every sink's observation history (and a
// recompute_every knob), written by a walk whose score depended on that
// history — its score_bits and every later accept decision are not the
// ones this driver's score, a function of the edge list alone, produces.
const checkpointVersion = 3

// ErrCheckpointStale reports a checkpoint that cannot continue the run
// that wrote it here: the parent content hash or a replayed seed draw
// disagrees with the measurement and master seed it is being resumed
// against, or an earlier driver wrote it. Resuming would not reproduce
// the original trace, so the checkpoint is refused.
var ErrCheckpointStale = errors.New("synth: checkpoint does not match the measurement, seed and fit driver")

// ChainCheckpoint is one chain's durable state at a re-anchor boundary.
type ChainCheckpoint struct {
	// Seed is the chain rng's seed, drawn from the master rng; resume
	// verifies its own replayed draw matches before trusting RngPos.
	Seed int64 `json:"seed"`
	// RngPos is the chain rng's draw count at the boundary, after
	// re-anchoring (which consumes nothing).
	RngPos uint64 `json:"rng_pos"`
	// Pow is the chain's current ladder assignment (moved by swaps).
	Pow float64 `json:"pow"`
	// ScoreBits is math.Float64bits of the re-anchored score, verified
	// on resume when the document records one shard (see Shards).
	ScoreBits uint64 `json:"score_bits"`
	// Walk statistics accumulated so far.
	Accepted      int `json:"accepted"`
	Rejected      int `json:"rejected"`
	Invalid       int `json:"invalid"`
	SwapsProposed int `json:"swaps_proposed"`
	SwapsAccepted int `json:"swaps_accepted"`
	// Edges is the chain's undirected edge list in live (swap-permuted)
	// order, each entry a normalized (src, dst) pair.
	Edges [][2]int32 `json:"edges"`
}

// Checkpoint is a complete `wpinq-checkpoint v3` document.
type Checkpoint struct {
	Version int `json:"version"`
	// ParentHash is the content hash (sha256, hex) of the serialized
	// measurement the fit runs against; resume refuses a mismatch.
	ParentHash string `json:"parent_hash,omitempty"`
	// Eps, Workloads, and the knobs below pin the trace-relevant
	// configuration; resume runs under exactly these values.
	Eps             float64  `json:"eps"`
	Workloads       []string `json:"workloads"`
	Steps           int      `json:"steps"`
	Step            int      `json:"step"`
	CheckpointEvery int      `json:"checkpoint_every"`
	SwapEvery       int      `json:"swap_every"`
	// Shards is the executor width the fit ran at: 1 in every document
	// this driver writes. A document recording N > 1 — from a writer
	// that sharded its engine — resumes at one partition without its
	// score bits checked: they came from a per-process routing order.
	Shards int `json:"shards"`
	// Ladder and Parity carry the replica-exchange schedule state.
	Ladder []int `json:"ladder"`
	Parity int   `json:"parity"`
	// SwapSeed/SwapPos serialize the swap rng like a chain rng.
	SwapSeed int64             `json:"swap_seed"`
	SwapPos  uint64            `json:"swap_pos"`
	Chains   []ChainCheckpoint `json:"chains"`
	// Meta is an opaque caller-owned envelope (the curator service
	// stores the owning job and its original request here).
	Meta json.RawMessage `json:"meta,omitempty"`
	// Hash is the self-hash: sha256 (hex) of the document serialized
	// with Hash blanked. Load refuses a mismatch.
	Hash string `json:"hash"`
}

// hashCheckpoint returns the canonical self-hash of ck: sha256 over the
// JSON serialization with the Hash field blanked.
func hashCheckpoint(ck *Checkpoint) (string, error) {
	saved := ck.Hash
	ck.Hash = ""
	b, err := json.Marshal(ck)
	ck.Hash = saved
	if err != nil {
		return "", fmt.Errorf("synth: serializing checkpoint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Save writes the checkpoint to w in the versioned on-disk format: a
// `wpinq-checkpoint v3` header line followed by one JSON document with
// an embedded self-hash.
func (ck *Checkpoint) Save(w io.Writer) error {
	ck.Version = checkpointVersion
	h, err := hashCheckpoint(ck)
	if err != nil {
		return err
	}
	ck.Hash = h
	if _, err := fmt.Fprintf(w, "%s v%d\n", checkpointHeader, checkpointVersion); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(ck)
}

// LoadCheckpoint reads a checkpoint written by Save, verifying the
// header, the version, the embedded self-hash, and a swap schedule
// (ladder and parity) a resumed fit can follow. A checkpoint of an
// earlier version fails with ErrCheckpointStale.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("synth: reading checkpoint header: %w", err)
	}
	var v int
	if _, err := fmt.Sscanf(line, checkpointHeader+" v%d", &v); err != nil {
		return nil, fmt.Errorf("synth: not a %s file: %q", checkpointHeader, line)
	}
	if v > 0 && v < checkpointVersion {
		return nil, fmt.Errorf("%w: checkpoint version %d was written by an earlier fit driver (current: %d)", ErrCheckpointStale, v, checkpointVersion)
	}
	if v != checkpointVersion {
		return nil, fmt.Errorf("synth: unsupported checkpoint version %d (supported: %d)", v, checkpointVersion)
	}
	var ck Checkpoint
	if err := json.NewDecoder(br).Decode(&ck); err != nil {
		return nil, fmt.Errorf("synth: decoding checkpoint: %w", err)
	}
	if ck.Version != v {
		return nil, fmt.Errorf("synth: checkpoint header says v%d but document says v%d", v, ck.Version)
	}
	want, err := hashCheckpoint(&ck)
	if err != nil {
		return nil, err
	}
	if ck.Hash != want {
		return nil, fmt.Errorf("synth: checkpoint self-hash mismatch (document corrupt)")
	}
	if len(ck.Chains) == 0 {
		return nil, errors.New("synth: checkpoint has no chains")
	}
	// Every v3 writer recorded a width of at least one shard, so a
	// document recording less was not written by this driver.
	if ck.Shards < 1 {
		return nil, fmt.Errorf("%w: checkpoint records shards %d, not a resolved executor width", ErrCheckpointStale, ck.Shards)
	}
	// A swap round indexes the ladder by parity and the chains by the
	// ladder's entries; a document no fit could have written is refused
	// here rather than panicking the resumed fit.
	if ck.Parity != 0 && ck.Parity != 1 {
		return nil, fmt.Errorf("synth: checkpoint parity %d is not 0 or 1", ck.Parity)
	}
	notPermutation := fmt.Errorf("synth: checkpoint ladder is not a permutation of its %d chain indices", len(ck.Chains))
	if len(ck.Ladder) != len(ck.Chains) {
		return nil, notPermutation
	}
	seen := make([]bool, len(ck.Chains))
	for _, c := range ck.Ladder {
		if c < 0 || c >= len(seen) || seen[c] {
			return nil, notPermutation
		}
		seen[c] = true
	}
	return &ck, nil
}

// packEdges converts a live edge list to the checkpoint wire form.
func packEdges(edges []graph.Edge) [][2]int32 {
	out := make([][2]int32, len(edges))
	for i, e := range edges {
		out[i] = [2]int32{int32(e.Src), int32(e.Dst)}
	}
	return out
}

// unpackEdges converts checkpointed edges back to graph.Edge form.
func unpackEdges(packed [][2]int32) []graph.Edge {
	out := make([]graph.Edge, len(packed))
	for i, e := range packed {
		out[i] = graph.Edge{Src: graph.Node(e[0]), Dst: graph.Node(e[1])}
	}
	return out
}
