package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"wpinq/internal/budget"
	"wpinq/internal/synth"
)

// Provenance ledger: an append-only, hash-chained record of every
// release, per dataset. The paper's two-party model asks the analyst
// to trust that the curator charged the budget it claims and released
// the bytes it stored; the ledger makes that claim checkable. Each
// measurement appends one record binding together what was measured
// (workload names, epsilon, cost), against which dataset state
// (parent release IDs, running budget after the charge), and exactly
// which bytes were released (full content hash, format version).
//
// Chain invariant: record 0 has PrevHash ""; record i carries
// PrevHash = Hash(record i-1); every record's Hash is the SHA-256 of
// its own canonical JSON with the Hash field blanked. Appending is the
// only mutation, so any tampering — editing a record, dropping one,
// reordering — breaks the chain at the first affected record.
//
// AuditRecords replays a chain against the live budget ledger and the
// stored bytes; `wpinq remote audit` runs it client-side, so the
// analyst verifies the curator rather than taking the service's word.

// ProvenanceOpMeasure is the Op of a measurement/release record.
const ProvenanceOpMeasure = "measure"

// ProvenanceOpMeasureFailed is the Op of a charge that produced no
// chained release: the budget was debited and then the measurement, the
// store or the ledger append failed. The debit stands (deliberately: the
// failed attempt may already have touched the data), and this record is
// what keeps it inside the chain — it carries the cost and the SpentAfter
// checkpoint like a release and names no measurement.
const ProvenanceOpMeasureFailed = "measure-failed"

// ProvenanceRecord is one link of a dataset's hash chain.
type ProvenanceRecord struct {
	// Seq is the record's index in the dataset's chain, from 0.
	Seq int `json:"seq"`
	// Dataset is the registry ID the record belongs to.
	Dataset string `json:"dataset"`
	// Op is the operation kind (ProvenanceOpMeasure or
	// ProvenanceOpMeasureFailed).
	Op string `json:"op"`
	// Measurement is the content-addressed store ID of the release.
	Measurement string `json:"measurement"`
	// Workloads lists the measured fit workloads, sorted.
	Workloads []string `json:"workloads"`
	// Eps is the per-measurement privacy parameter; Cost is the total
	// epsilon charged (seed bundle + workload uses, times Eps).
	Eps  float64 `json:"eps"`
	Cost float64 `json:"cost"`
	// SpentAfter is the dataset ledger's cumulative spend immediately
	// after this charge: the replay checkpoint.
	SpentAfter float64 `json:"spentAfter"`
	// FormatVersion is the release's serialization header version
	// (e.g. "v2").
	FormatVersion string `json:"formatVersion"`
	// Parents lists the dataset's prior release IDs at measurement
	// time, oldest first.
	Parents []string `json:"parents,omitempty"`
	// ContentHash is the full SHA-256 (hex) of the stored bytes; the
	// store ID is a truncation of it, the full hash pins the content.
	ContentHash string `json:"contentHash"`
	// Failure classifies what went wrong after the charge of a
	// ProvenanceOpMeasureFailed record — the step that failed, or
	// "panic" — and is empty otherwise. It is a class, never an error's
	// or a panic's text: the ledger is served to analysts.
	Failure string `json:"failure,omitempty"`
	// PrevHash chains to the previous record's Hash ("" for Seq 0).
	PrevHash string `json:"prevHash"`
	// Hash is the SHA-256 (hex) of this record's canonical JSON with
	// Hash itself blanked.
	Hash string `json:"hash"`
}

// recordHash computes the chain hash of rec (ignoring its Hash field).
// It fails only on a record JSON cannot carry — a non-finite Eps, Cost or
// SpentAfter — which no verified ledger line can hold.
func recordHash(rec ProvenanceRecord) (string, error) {
	rec.Hash = ""
	b, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("hashing provenance record: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ContentHash returns the full SHA-256 (hex) of stored release bytes.
func ContentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// formatVersion extracts the version token of a release's
// format-version header line ("wpinq-measurements v2" -> "v2").
func formatVersion(data []byte) string {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	_, version, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return ""
	}
	return string(version)
}

// provenanceFile is the ledger's on-disk name under the store dir: one
// JSON record per line, appended in commit order across all datasets.
const provenanceFile = "provenance.jsonl"

// AppendProvenance fills in the chain fields of rec (Seq, PrevHash,
// Hash), appends it to the dataset's chain, and persists it. The
// caller provides every payload field; the store owns the chaining.
func (st *Store) AppendProvenance(rec ProvenanceRecord) (ProvenanceRecord, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	chain := st.prov[rec.Dataset]
	rec.Seq = len(chain)
	rec.PrevHash = ""
	if len(chain) > 0 {
		rec.PrevHash = chain[len(chain)-1].Hash
	}
	var err error
	if rec.Hash, err = recordHash(rec); err != nil {
		return ProvenanceRecord{}, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	if st.dir != "" {
		line, err := json.Marshal(rec)
		if err != nil {
			return ProvenanceRecord{}, err
		}
		f, err := os.OpenFile(filepath.Join(st.dir, provenanceFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return ProvenanceRecord{}, fmt.Errorf("%w: opening provenance ledger: %v", ErrInternal, err)
		}
		// One Write call for line+newline: a crash can tear the suffix of
		// this single append but can never interleave two records, which is
		// what lets loadProvenance classify an unterminated final line as a
		// torn tail rather than tampering. The fsync bounds the loss to the
		// record being appended — earlier records are durable.
		_, werr := f.Write(append(line, '\n'))
		if serr := f.Sync(); werr == nil {
			werr = serr
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return ProvenanceRecord{}, fmt.Errorf("%w: appending provenance record: %v", ErrInternal, werr)
		}
	}
	if st.prov == nil {
		st.prov = make(map[string][]ProvenanceRecord)
	}
	st.prov[rec.Dataset] = append(chain, rec)
	provenanceRecords.Inc()
	return rec, nil
}

// Provenance returns a copy of one dataset's chain, oldest first. An
// unknown dataset returns an empty chain: an empty ledger is a valid
// (trivially verified) provenance state, not an error.
func (st *Store) Provenance(dataset string) []ProvenanceRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]ProvenanceRecord(nil), st.prov[dataset]...)
}

// ProvenanceDatasets returns the dataset IDs with at least one ledger
// record, sorted.
func (st *Store) ProvenanceDatasets() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.prov))
	for id := range st.prov {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// loadProvenance reads the persisted ledger back into memory,
// verifying each dataset's chain as it goes: a service must not start
// on a ledger it cannot vouch for.
//
// One failure mode is not tampering: a crash mid-append can leave a
// torn final line (AppendProvenance writes each record in a single
// write call, so only the file's very last line can be incomplete, and
// a torn line necessarily lacks the trailing newline). Such a tail is
// truncated with a warning and counted under
// wpinq_store_provenance_torn_tails_total — the record it belonged to
// was never acknowledged durable. Everything else that fails to parse
// or verify still refuses boot: an unparseable line *with* a newline,
// or any chain-verification failure, cannot be produced by a torn
// append and means the ledger was edited.
func (st *Store) loadProvenance() error {
	path := filepath.Join(st.dir, provenanceFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: reading provenance ledger: %w", err)
	}
	verify := func(rec ProvenanceRecord, line int) error {
		chain := st.prov[rec.Dataset]
		if rec.Seq != len(chain) {
			return fmt.Errorf("service: provenance ledger line %d: dataset %s record out of order (seq %d, want %d)",
				line, rec.Dataset, rec.Seq, len(chain))
		}
		prev := ""
		if len(chain) > 0 {
			prev = chain[len(chain)-1].Hash
		}
		if rec.PrevHash != prev {
			return fmt.Errorf("service: provenance ledger line %d: dataset %s chain broken at seq %d",
				line, rec.Dataset, rec.Seq)
		}
		if h, err := recordHash(rec); err != nil || h != rec.Hash {
			return fmt.Errorf("service: provenance ledger line %d: dataset %s record %d hash mismatch",
				line, rec.Dataset, rec.Seq)
		}
		if st.prov == nil {
			st.prov = make(map[string][]ProvenanceRecord)
		}
		st.prov[rec.Dataset] = append(chain, rec)
		return nil
	}
	line := 0
	for off := 0; off < len(data); {
		line++
		end := bytes.IndexByte(data[off:], '\n')
		terminated := end >= 0
		var raw []byte
		if terminated {
			raw = data[off : off+end]
		} else {
			raw = data[off:]
		}
		lineStart := off
		if terminated {
			off += end + 1
		} else {
			off = len(data)
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var rec ProvenanceRecord
		perr := json.Unmarshal(raw, &rec)
		if perr == nil {
			// A parseable record that fails chain verification is refused
			// even as an unterminated tail: a torn append yields a JSON
			// prefix that does not parse, so a parseable-but-wrong record
			// means the ledger was edited.
			if verr := verify(rec, line); verr != nil {
				return verr
			}
			if !terminated {
				// The record is whole and chain-valid; only the newline was
				// lost. Repair the terminator so the next append starts a
				// fresh line instead of corrupting this record.
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return fmt.Errorf("service: repairing provenance ledger terminator: %w", err)
				}
				_, werr := f.Write([]byte{'\n'})
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					return fmt.Errorf("service: repairing provenance ledger terminator: %w", werr)
				}
				st.log.Warn("provenance ledger tail missing newline; repaired", "line", line)
			}
			continue
		}
		if !terminated {
			// Torn tail: crash mid-append. The record was never durable;
			// truncate it away and continue boot.
			if err := os.Truncate(path, int64(lineStart)); err != nil {
				return fmt.Errorf("service: truncating torn provenance tail: %w", err)
			}
			st.log.Warn("provenance ledger has a torn final line (crash mid-append); truncated",
				"line", line, "bytes", len(raw))
			provenanceTornTails.Inc()
			return nil
		}
		return fmt.Errorf("service: provenance ledger line %d: %w", line, perr)
	}
	return nil
}

// ProvenanceInfo is the provenance endpoint's response: the chain plus
// the live ledger snapshot the audit replays against.
type ProvenanceInfo struct {
	Dataset string             `json:"dataset"`
	Ledger  budget.Snapshot    `json:"ledger"`
	Records []ProvenanceRecord `json:"records"`
}

// AuditReport is the outcome of replaying one dataset's provenance
// chain against its budget ledger and the stored release bytes.
type AuditReport struct {
	Dataset string `json:"dataset"`
	// Records is the chain length; Verified counts records that passed
	// every check.
	Records  int `json:"records"`
	Verified int `json:"verified"`
	// SpentReplayed is the sum of the chain's recorded costs;
	// LedgerSpent and LedgerBudget come from the live ledger.
	SpentReplayed float64 `json:"spentReplayed"`
	LedgerSpent   float64 `json:"ledgerSpent"`
	LedgerBudget  float64 `json:"ledgerBudget"`
	// OK reports a fully clean replay; Problems lists every failed
	// check otherwise.
	OK       bool     `json:"ok"`
	Problems []string `json:"problems,omitempty"`
}

// auditTolerance absorbs float accumulation in epsilon sums, matching
// the ledger's own overdraw tolerance.
const auditTolerance = 1e-9

// AuditRecords replays a provenance chain. fetch returns the stored
// bytes of a release ID (a Store's Bytes method server-side, the HTTP
// measurement fetch client-side). The audit verifies, per record: the
// hash chain (seq, prev-hash link, self hash), the content (store ID
// and full SHA-256 of the fetched bytes, format version; a failed
// measurement's record must name no release), the cost (recomputed from
// the recorded workloads and epsilon via the privacy calculus), and the
// budget replay (running cost sum against the record's SpentAfter
// checkpoint — which catches out-of-order or retroactively edited
// charges — and finally against the live ledger).
func AuditRecords(dataset string, recs []ProvenanceRecord, ledger budget.Snapshot, fetch func(id string) ([]byte, error)) AuditReport {
	rep := AuditReport{
		Dataset:      dataset,
		Records:      len(recs),
		LedgerSpent:  ledger.Spent,
		LedgerBudget: ledger.Budget,
	}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	var running float64
	prevHash := ""
	for i, rec := range recs {
		ok := true
		fail := func(format string, args ...any) {
			problem("record %d: %s", i, fmt.Sprintf(format, args...))
			ok = false
		}
		if rec.Dataset != dataset {
			fail("belongs to dataset %s, not %s", rec.Dataset, dataset)
		}
		if rec.Seq != i {
			fail("seq %d, want %d", rec.Seq, i)
		}
		if rec.PrevHash != prevHash {
			fail("prev-hash link broken (chain reordered or record removed)")
		}
		if h, err := recordHash(rec); err != nil || h != rec.Hash {
			fail("record hash mismatch (record edited after append)")
		}
		prevHash = rec.Hash

		switch rec.Op {
		case ProvenanceOpMeasureFailed:
			if rec.Measurement != "" || rec.ContentHash != "" {
				fail("a charge recorded as failed names release %s", rec.Measurement)
			}
		case ProvenanceOpMeasure:
			data, err := fetch(rec.Measurement)
			switch {
			case err != nil:
				fail("fetching release %s: %v", rec.Measurement, err)
			case contentID(data) != rec.Measurement:
				fail("release %s bytes hash to store ID %s (stored blob corrupted)", rec.Measurement, contentID(data))
			case ContentHash(data) != rec.ContentHash:
				fail("release %s content hash mismatch (stored blob corrupted)", rec.Measurement)
			case formatVersion(data) != rec.FormatVersion:
				fail("release %s format version %q, ledger says %q", rec.Measurement, formatVersion(data), rec.FormatVersion)
			}
		}
		if rec.Op == ProvenanceOpMeasure || rec.Op == ProvenanceOpMeasureFailed {
			want := synth.Config{Eps: rec.Eps, Workloads: rec.Workloads}.MeasureCost()
			if math.Abs(want-rec.Cost) > auditTolerance {
				fail("recorded cost %g, privacy calculus gives %g for eps %g workloads %v",
					rec.Cost, want, rec.Eps, rec.Workloads)
			}
		}
		running += rec.Cost
		if math.Abs(running-rec.SpentAfter) > auditTolerance {
			fail("replayed spend %g disagrees with recorded checkpoint %g (out-of-order or unledgered charge)",
				running, rec.SpentAfter)
		}
		if ok {
			rep.Verified++
		}
	}
	rep.SpentReplayed = running
	if math.Abs(running-ledger.Spent) > auditTolerance {
		problem("ledger reports %g spent but the chain replays to %g (charge outside the ledger)",
			ledger.Spent, running)
	}
	if running > ledger.Budget+auditTolerance {
		problem("replayed spend %g exceeds the registered budget %g", running, ledger.Budget)
	}
	rep.OK = len(rep.Problems) == 0
	return rep
}
