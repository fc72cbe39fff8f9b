package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"wpinq/internal/synth"
)

// TestStoreServesOnlyVerifiedBytes overwrites a stored release on disk
// after boot. The store holds no copy of the bytes to fall back on, and
// it must not serve what the file now holds: Bytes, Load and
// GET /v1/measurements/{id} each fail with a typed internal error.
func TestStoreServesOnlyVerifiedBytes(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{})
	st := svc.Store()
	path := filepath.Join(st.Dir(), mID+".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if served, err := st.Bytes(mID); err != nil || !bytes.Equal(served, good) {
		t.Fatalf("Bytes before the overwrite: %d bytes, %v; want the file's %d", len(served), err, len(good))
	}
	if err := os.WriteFile(path, bytes.Replace(good, []byte("{"), []byte("{ "), 1), 0o644); err != nil {
		t.Fatal(err)
	}

	if data, err := st.Bytes(mID); !errors.Is(err, ErrInternal) {
		t.Errorf("Bytes of an overwritten release: %d bytes, %v; want ErrInternal", len(data), err)
	}
	if _, err := st.Load(mID, rand.New(rand.NewSource(1))); !errors.Is(err, ErrInternal) {
		t.Errorf("Load of an overwritten release: %v, want ErrInternal", err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/measurements/"+mID, nil))
	var api APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &api); err != nil ||
		rec.Code != http.StatusInternalServerError || api.Code != CodeInternal {
		t.Errorf("GET /v1/measurements/%s of an overwritten release: %d %q, want %d %s",
			mID, rec.Code, rec.Body, http.StatusInternalServerError, CodeInternal)
	}
}

// TestRequestIDsOpenNoFile pins the ID gate in front of every file the
// store reads on a request's behalf: a release is read only if its ID is
// in the index, a checkpoint only if its job ID has the j<N> form the
// manager issues. Anything else is 404 not_found, and no file is opened,
// least of all one outside the store directory.
func TestRequestIDsOpenNoFile(t *testing.T) {
	svc, _, _ := measureOnce(t, Options{})
	st := svc.Store()
	var opened []string
	st.read = func(path string) ([]byte, error) {
		opened = append(opened, path)
		return os.ReadFile(path)
	}
	for _, row := range []struct {
		name string
		err  func() error
	}{
		{"POST /v1/jobs/..%2F..%2Fx/resume", func() error {
			rec := postRaw(svc.Handler(), "/v1/jobs/..%2F..%2Fx/resume", nil)
			var api APIError
			if err := json.Unmarshal(rec.Body.Bytes(), &api); err != nil {
				return err
			}
			if rec.Code != http.StatusNotFound || api.Code != CodeNotFound {
				return &api
			}
			return ErrNotFound
		}},
		{`Store.Checkpoint("../x")`, func() error { _, err := st.Checkpoint("../x"); return err }},
		{`Store.Bytes("m../x")`, func() error { _, err := st.Bytes("m../x"); return err }},
	} {
		opened = nil
		if err := row.err(); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: %v, want not found", row.name, err)
		}
		if len(opened) > 0 {
			t.Errorf("%s opened %v", row.name, opened)
		}
	}
}

// TestPrivateStoreDirIsRemovedAtClose pins what an empty Options.Dir
// means: the store still has a directory, a private one, and Close
// removes it with everything in it. A directory the caller named stays.
func TestPrivateStoreDirIsRemovedAtClose(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{})
	dir := svc.Store().Dir()
	if _, err := os.Stat(filepath.Join(dir, mID+".json")); err != nil {
		t.Fatalf("the release is not a file in the private store dir %q: %v", dir, err)
	}
	svc.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("private store dir %s survived Close (stat: %v)", dir, err)
	}

	named := t.TempDir()
	svc, _, mID = measureOnce(t, Options{Dir: named})
	svc.Close()
	if _, err := os.Stat(filepath.Join(named, mID+".json")); err != nil {
		t.Errorf("Close removed a release from the named store dir: %v", err)
	}
}

// TestStoreDirMayHoldGlobMetacharacters boots a store twice over a
// directory whose path is a glob pattern that does not match itself. A
// store that globbed its directory found nothing there: after the
// restart it listed no release, and Checkpoints listed none at all.
func TestStoreDirMayHoldGlobMetacharacters(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store[1]")
	svc, _, mID := measureOnce(t, Options{Dir: dir})
	if err := svc.Store().PutCheckpoint("j1", []byte("a checkpoint")); err != nil {
		t.Fatal(err)
	}
	if got := svc.Store().Checkpoints(); !slices.Equal(got, []string{"j1"}) {
		t.Errorf("Checkpoints() = %v, want [j1]", got)
	}
	svc.Close()
	st, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.List(); len(got) != 1 || got[0].ID != mID {
		t.Errorf("the restarted store lists %+v, want release %s", got, mID)
	}
	if got := st.Checkpoints(); !slices.Equal(got, []string{"j1"}) {
		t.Errorf("the restarted store's Checkpoints() = %v, want [j1]", got)
	}
}

// TestReleaseIsReadOncePerJobAndNotAtMeasure counts, through the store's
// read hook, the files a release's lifecycle opens. A measure opens
// nothing: the provenance record names the hash of the bytes Put has just
// written. A durable job's start opens its release once: the load that
// verifies it also yields the parent hash its checkpoints carry. The
// hashes and the ID are the ones the stored file's bytes give.
func TestReleaseIsReadOncePerJobAndNotAtMeasure(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, Options{Dir: dir, Workers: 1, Seed: 1})
	st := svc.Store()
	var (
		mu       sync.Mutex
		opened   []string
		parents  []string
		writeOld = st.write
	)
	st.read = func(path string) ([]byte, error) {
		mu.Lock()
		opened = append(opened, filepath.Base(path))
		mu.Unlock()
		return os.ReadFile(path)
	}
	st.write = func(path string, data []byte) error {
		if strings.HasPrefix(filepath.Base(path), "ckpt-") {
			ck, err := synth.LoadCheckpoint(bytes.NewReader(data))
			if err != nil {
				t.Errorf("checkpoint %s: %v", path, err)
			} else {
				mu.Lock()
				parents = append(parents, ck.ParentHash)
				mu.Unlock()
			}
		}
		return writeOld(path, data)
	}

	ds, err := svc.Registry().Upload("reads", tbiCost, bytes.NewReader(edgeListBytes(t, testGraph(t, 40))))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mID := res.Measurement.ID
	if len(opened) != 0 {
		t.Errorf("a measure opened %v, want nothing", opened)
	}
	data, err := os.ReadFile(filepath.Join(dir, mID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := contentID(data); got != mID {
		t.Errorf("release ID %s, want the stored bytes' %s", mID, got)
	}
	recs := st.Provenance(ds.ID)
	if len(recs) != 1 || recs[0].ContentHash != ContentHash(data) || recs[0].FormatVersion != "v2" {
		t.Fatalf("provenance %+v, want one v2 record with content hash %s", recs, ContentHash(data))
	}

	js, err := svc.SubmitJob(JobRequest{Measurement: mID, Steps: 300, CheckpointEvery: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.jobs.get(js.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if got := j.Status(); got.State != JobDone {
		t.Fatalf("job %s finished %s (%s)", js.ID, got.State, got.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{mID + ".json"}; !slices.Equal(opened, want) {
		t.Errorf("a durable job's start opened %v, want %v", opened, want)
	}
	if len(parents) == 0 {
		t.Fatal("the durable job wrote no checkpoint")
	}
	for _, p := range parents {
		if p != ContentHash(data) {
			t.Errorf("checkpoint parent hash %s, want the stored bytes' %s", p, ContentHash(data))
		}
	}
}
