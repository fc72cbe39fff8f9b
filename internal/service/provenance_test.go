package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wpinq/internal/budget"
)

// measureOnce uploads a fresh graph with budget for two TbI bundles and
// measures it once, returning the service, dataset ID, and release ID.
func measureOnce(t *testing.T, opts Options) (*Service, string, string) {
	t.Helper()
	svc := newTestService(t, opts)
	g := testGraph(t, 40)
	ds, err := svc.Registry().Upload("prov", 2*tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 7, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	return svc, ds.ID, res.Measurement.ID
}

func TestProvenanceChainAndCleanAudit(t *testing.T) {
	svc, dsID, mID := measureOnce(t, Options{})

	recs := svc.Store().Provenance(dsID)
	if len(recs) != 1 {
		t.Fatalf("got %d provenance records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Seq != 0 || rec.PrevHash != "" || rec.Op != ProvenanceOpMeasure {
		t.Errorf("first record ill-formed: %+v", rec)
	}
	if rec.Measurement != mID || rec.Dataset != dsID {
		t.Errorf("record references %s/%s, want %s/%s", rec.Dataset, rec.Measurement, dsID, mID)
	}
	if rec.Cost != tbiCost || rec.SpentAfter != tbiCost {
		t.Errorf("cost/spentAfter = %g/%g, want %g", rec.Cost, rec.SpentAfter, tbiCost)
	}
	if rec.FormatVersion != "v2" {
		t.Errorf("format version %q, want v2", rec.FormatVersion)
	}
	data, err := svc.Store().Bytes(mID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ContentHash != ContentHash(data) {
		t.Errorf("content hash does not pin the stored bytes")
	}
	if len(rec.Parents) != 0 {
		t.Errorf("first release has parents %v", rec.Parents)
	}

	rep, err := svc.Audit(dsID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Verified != 1 || len(rep.Problems) != 0 {
		t.Fatalf("clean audit failed: %+v", rep)
	}

	// A second measurement chains onto the first and lists it as parent.
	res2, err := svc.Measure(dsID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs = svc.Store().Provenance(dsID)
	if len(recs) != 2 {
		t.Fatalf("got %d records after second measure, want 2", len(recs))
	}
	if recs[1].PrevHash != recs[0].Hash || recs[1].Seq != 1 {
		t.Errorf("second record does not chain onto the first: %+v", recs[1])
	}
	if len(recs[1].Parents) != 1 || recs[1].Parents[0] != mID {
		t.Errorf("second record parents %v, want [%s]", recs[1].Parents, mID)
	}
	if recs[1].Measurement != res2.Measurement.ID {
		t.Errorf("second record references %s, want %s", recs[1].Measurement, res2.Measurement.ID)
	}
	rep, err = svc.Audit(dsID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Verified != 2 || rep.SpentReplayed != 2*tbiCost {
		t.Fatalf("two-record audit failed: %+v", rep)
	}
}

// TestAuditDetectsTampering exercises the audit's failure modes one by
// one against a genuine chain: each kind of tampering must be caught,
// and named for what it is.
func TestAuditDetectsTampering(t *testing.T) {
	svc, dsID, _ := measureOnce(t, Options{})
	if _, err := svc.Measure(dsID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	recs := svc.Store().Provenance(dsID)
	ledger, err := svc.Registry().Info(dsID)
	if err != nil {
		t.Fatal(err)
	}
	fetch := svc.Store().Bytes

	audit := func(recs []ProvenanceRecord, fetch func(string) ([]byte, error), ledger budget.Snapshot) AuditReport {
		return AuditRecords(dsID, recs, ledger, fetch)
	}
	expectProblem(t, "clean chain", audit(recs, fetch, ledger.Ledger), "")

	// Edit a record's epsilon after the fact: hash mismatch + cost
	// recompute failure.
	edited := append([]ProvenanceRecord(nil), recs...)
	edited[0].Eps = 0.5
	expectProblem(t, "edited epsilon", audit(edited, fetch, ledger.Ledger), "record edited")

	// Relabel a release as a charge that produced none: the record would
	// replay as budget spent on nothing while its bytes stay served.
	relabelled := append([]ProvenanceRecord(nil), recs...)
	relabelled[1].Op = ProvenanceOpMeasureFailed
	expectProblem(t, "release relabelled as failed", audit(relabelled, fetch, ledger.Ledger), "recorded as failed names release")

	// Drop the first record: the chain link and every SpentAfter
	// checkpoint after it break.
	expectProblem(t, "dropped record", audit(recs[1:], fetch, ledger.Ledger), "chain reordered or record removed")

	// Corrupt the stored release bytes: content hash mismatch.
	tampered := func(id string) ([]byte, error) {
		data, err := fetch(id)
		if err != nil {
			return nil, err
		}
		data[len(data)-2] ^= 0x01
		return data, nil
	}
	expectProblem(t, "corrupted blob", audit(recs, tampered, ledger.Ledger), "corrupted")

	// A missing release must fail, not pass vacuously.
	gone := func(id string) ([]byte, error) { return nil, fmt.Errorf("gone") }
	expectProblem(t, "missing blob", audit(recs, gone, ledger.Ledger), "fetching release")

	// A ledger that claims less spend than the chain replays: some
	// charge happened outside the ledger (or the ledger was reset).
	short := ledger.Ledger
	short.Spent = tbiCost
	expectProblem(t, "ledger mismatch", audit(recs, fetch, short), "charge outside the ledger")
}

// expectProblem asserts the audit failed with a problem containing
// want, or — when want is empty — that it passed clean.
func expectProblem(t *testing.T, name string, rep AuditReport, want string) {
	t.Helper()
	if want == "" {
		if !rep.OK {
			t.Fatalf("%s: audit failed: %v", name, rep.Problems)
		}
		return
	}
	if rep.OK {
		t.Fatalf("%s: audit passed, want a problem containing %q", name, want)
	}
	for _, p := range rep.Problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Fatalf("%s: problems %v, none contains %q", name, rep.Problems, want)
}

// TestAuditDetectsOutOfOrderSpend replays a chain whose per-record
// SpentAfter checkpoints were recorded against a different charge
// order than the chain claims: the running-sum replay must notice
// even though each record is individually well-formed and the final
// total agrees with the ledger.
func TestAuditDetectsOutOfOrderSpend(t *testing.T) {
	st, err := NewStore("", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two releases with different costs: tbi (4 uses) vs jdd (2 uses)
	// on top of the 3-eps seed bundle, at eps 1 and eps 2.
	blob := func(seed int64) []byte {
		return []byte(fmt.Sprintf("wpinq-measurements v2\nblob %d", seed))
	}
	b1, b2 := blob(1), blob(2)
	fetch := func(id string) ([]byte, error) {
		switch id {
		case contentID(b1):
			return b1, nil
		case contentID(b2):
			return b2, nil
		}
		return nil, fmt.Errorf("unknown release %s", id)
	}
	mk := func(data []byte, eps, spentAfter float64) ProvenanceRecord {
		return ProvenanceRecord{
			Dataset:       "d1",
			Op:            ProvenanceOpMeasure,
			Measurement:   contentID(data),
			Workloads:     []string{"tbi"},
			Eps:           eps,
			Cost:          eps * tbiCost,
			SpentAfter:    spentAfter,
			FormatVersion: "v2",
			ContentHash:   ContentHash(data),
		}
	}
	// The true history charged eps=1 then eps=2, so the checkpoints
	// are 7 then 21. The forged chain presents the records in the
	// opposite order with their original checkpoints intact.
	if _, err := st.AppendProvenance(mk(b2, 2, 2*tbiCost)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendProvenance(mk(b1, 1, tbiCost)); err != nil {
		t.Fatal(err)
	}
	ledger := budget.Snapshot{Name: "d1", Budget: 3 * tbiCost, Spent: 3 * tbiCost}
	rep := AuditRecords("d1", st.Provenance("d1"), ledger, fetch)
	expectProblem(t, "out-of-order spend", rep, "out-of-order or unledgered charge")
}

// TestProvenancePersistsAcrossRestart closes one service over a data
// dir and opens another: the chain must reload, verify, keep dataset
// numbering past the persisted IDs, and reject a tampered ledger file.
func TestProvenancePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc, dsID, _ := measureOnce(t, Options{Dir: dir})
	first := svc.Store().Provenance(dsID)
	svc.Close()

	svc2 := newTestService(t, Options{Dir: dir})
	reloaded := svc2.Store().Provenance(dsID)
	if len(reloaded) != len(first) || reloaded[0].Hash != first[0].Hash {
		t.Fatalf("chain did not survive restart: %+v vs %+v", reloaded, first)
	}
	// The next upload must not reuse the persisted chain's dataset ID.
	g := testGraph(t, 30)
	ds, err := svc2.Registry().Upload("fresh", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if ds.ID == dsID {
		t.Fatalf("new upload reused dataset ID %s, grafting onto the old chain", dsID)
	}

	// Tamper with the persisted ledger: the next boot must refuse it.
	path := filepath.Join(dir, provenanceFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(`"eps":1`), []byte(`"eps":2`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("tampered ledger loaded without error (err=%v)", err)
	}
}
