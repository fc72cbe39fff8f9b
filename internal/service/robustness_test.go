package service

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wpinq/internal/budget"
)

// TestNonFiniteNumbersAreRefusedBeforeAnyCharge pins every door a number
// that is not a number could come through. A NaN budget compares false
// with every overdraw test, so a ledger registered with one releases
// anything; a NaN eps passed `Eps <= 0`, debited NaN — after which every
// later charge on the dataset succeeds — and panicked out of Measure when
// the measure-failed record could not be hashed. Each is refused with an
// error, before any charge: nothing registered, the ledger's bits
// unchanged, no provenance record, no release, no panic.
// (cmd/wpinq's test of the same name covers `wpinq measure -eps NaN`.)
func TestNonFiniteNumbersAreRefusedBeforeAnyCharge(t *testing.T) {
	svc := newTestService(t, Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	edges := edgeListBytes(t, testGraph(t, 40))

	for _, b := range []string{"NaN", "+Inf", "-Inf", "Inf"} {
		resp, err := http.Post(srv.URL+"/v1/datasets?name=probe&budget="+strings.ReplaceAll(b, "+", "%2B"), "text/plain", bytes.NewReader(edges))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/datasets?budget=%s: status %d, want 400", b, resp.StatusCode)
		}
	}
	if got := svc.Registry().List(); len(got) != 0 {
		t.Fatalf("refused uploads registered %+v", got)
	}

	ds, err := svc.Registry().Upload("finite", 2*tbiCost, bytes.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("Measure with eps %v panicked: %v", eps, p)
				}
			}()
			if _, err := svc.Measure(ds.ID, MeasureRequest{Eps: eps, Workloads: []string{"tbi"}, Seed: 5, Keep: true}); err == nil {
				t.Errorf("Measure with eps %v succeeded", eps)
			}
		}()
		info, err := svc.Registry().Info(ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(info.Ledger.Spent) != 0 || info.Discarded || len(info.Measurements) != 0 {
			t.Errorf("eps %v left ledger %+v, discarded=%v, releases %v", eps, info.Ledger, info.Discarded, info.Measurements)
		}
		if recs := svc.Store().Provenance(ds.ID); len(recs) != 0 || len(svc.Store().List()) != 0 {
			t.Errorf("eps %v left %d provenance records and %d releases", eps, len(recs), len(svc.Store().List()))
		}
	}

	// The ledger itself cannot be poisoned, whatever its caller validated.
	src := budget.NewSource("direct", 10)
	for _, cost := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if err := src.Charge(cost); err == nil {
			t.Errorf("Charge(%v) succeeded", cost)
		}
	}
	if math.Float64bits(src.Spent()) != 0 {
		t.Errorf("refused charges left Spent = %v", src.Spent())
	}
	if err := src.Charge(11); err == nil {
		t.Error("an overdraw succeeded after the refused charges")
	}

	// And a record that cannot be hashed is an error, not a panic.
	if _, err := svc.Store().AppendProvenance(ProvenanceRecord{Dataset: ds.ID, Op: ProvenanceOpMeasureFailed, Eps: math.NaN()}); !errors.Is(err, ErrInternal) {
		t.Errorf("appending a NaN record: %v, want ErrInternal", err)
	}
	if rep, err := svc.Audit(ds.ID); err != nil || !rep.OK {
		t.Errorf("audit after the refusals: %+v, %v", rep, err)
	}
}

// failStep returns a stand-in for Store.write that makes one step of the
// real writeAtomic fail for real, by planting an obstacle at the path it
// is about to use and removing it afterwards: a directory where the temp
// file goes (create), a link to /dev/full (write: ENOSPC) or /dev/null
// (fsync: EINVAL) there, or a non-empty directory at the final name
// (rename).
func failStep(step string) func(path string, data []byte) error {
	return func(path string, data []byte) error {
		obstacle := path + ".tmp"
		var err error
		switch step {
		case "create":
			err = os.Mkdir(obstacle, 0o755)
		case "write":
			err = os.Symlink("/dev/full", obstacle)
		case "fsync":
			err = os.Symlink("/dev/null", obstacle)
		case "rename":
			obstacle = path
			// The previous file, if any, must survive: move it aside.
			os.Rename(path, path+".aside")
			err = os.MkdirAll(filepath.Join(path, "occupied"), 0o755)
		}
		if err != nil {
			panic(fmt.Sprintf("planting the %s obstacle: %v", step, err))
		}
		werr := writeAtomic(path, data)
		os.RemoveAll(obstacle)
		if step == "rename" {
			os.Rename(path+".aside", path)
		}
		if werr == nil {
			panic("writeAtomic survived a failing " + step)
		}
		return werr
	}
}

// TestStoreWriteFailureLeavesNothingBehind fails the create, the write,
// the fsync and the rename of a measurement and of a checkpoint in turn.
// Each must surface as ErrInternal and change nothing: the store's
// listings in memory, the files on disk (only complete ones, no temp
// file), and a restart over the directory boots. Through Service.Measure
// the charge stands and is chained as a measure-failed record, and the
// audit is clean with the ledger on disk equal to the one in memory.
func TestStoreWriteFailureLeavesNothingBehind(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	dir := t.TempDir()
	svc := newTestService(t, Options{Dir: dir})
	st := svc.Store()
	ds, err := svc.Registry().Upload("d", 6*tbiCost, bytes.NewReader(edgeListBytes(t, testGraph(t, 40))))
	if err != nil {
		t.Fatal(err)
	}
	// One release and one checkpoint written cleanly, to be left alone.
	if _, err := svc.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 5, Keep: true}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCheckpoint("j1", []byte("first checkpoint")); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		t.Helper()
		out := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == provenanceFile {
				continue // grows by one measure-failed line per failed measure
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatalf("%s is not a complete file: %v", e.Name(), err)
			}
			out[e.Name()] = string(data)
		}
		return out
	}
	wantFiles, wantList := files(), st.List()
	spent := tbiCost

	for i, step := range []string{"create", "write", "fsync", "rename"} {
		st.write = failStep(step)
		_, err := svc.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: int64(10 + i), Keep: true})
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("measure with a failing %s: %v, want ErrInternal", step, err)
		}
		spent += tbiCost
		if err := st.PutCheckpoint("j1", []byte("second checkpoint")); !errors.Is(err, ErrInternal) {
			t.Fatalf("checkpoint with a failing %s: %v, want ErrInternal", step, err)
		}
		if err := st.PutCheckpoint("j2", []byte("a new job's")); !errors.Is(err, ErrInternal) {
			t.Fatalf("first checkpoint of a job with a failing %s: %v, want ErrInternal", step, err)
		}
		st.write = writeAtomic

		if got := st.List(); !reflect.DeepEqual(got, wantList) {
			t.Errorf("%s: store lists %+v, want %+v", step, got, wantList)
		}
		if got, err := st.Checkpoint("j1"); err != nil || string(got) != "first checkpoint" {
			t.Errorf("%s: checkpoint j1 = %q, %v; want the first one", step, got, err)
		}
		if _, err := st.Checkpoint("j2"); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: checkpoint j2: %v, want ErrNotFound", step, err)
		}
		if got := files(); !reflect.DeepEqual(got, wantFiles) {
			t.Errorf("%s: files on disk changed:\n got %v\nwant %v", step, slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(wantFiles)))
		}
		chain := st.Provenance(ds.ID)
		if last := chain[len(chain)-1]; last.Op != ProvenanceOpMeasureFailed || last.Failure != "store" || math.Abs(last.SpentAfter-spent) > 1e-9 {
			t.Errorf("%s: the failed measure is chained as %+v, want a measure-failed record at spend %g", step, last, spent)
		}
		reread, err := NewStore(dir, nil)
		if err != nil {
			t.Fatalf("%s: a restart over the directory does not boot: %v", step, err)
		}
		if onDisk := reread.Provenance(ds.ID); !reflect.DeepEqual(onDisk, chain) || !reflect.DeepEqual(reread.List(), wantList) {
			t.Errorf("%s: the restarted store differs from the live one", step)
		}
		if rep, err := svc.Audit(ds.ID); err != nil || !rep.OK || math.Abs(rep.SpentReplayed-spent) > 1e-9 {
			t.Errorf("%s: audit %+v (err=%v), want OK replaying to %g", step, rep, err, spent)
		}
	}

	// What a crash mid-write would have left is swept at boot.
	torn := filepath.Join(dir, "m0123456789abcdef.json.tmp")
	if err := os.WriteFile(torn, []byte("half a rele"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(dir, nil); err != nil {
		t.Fatalf("boot over a leftover temp file: %v", err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("the leftover temp file survived the boot: %v", err)
	}
}
