package service

// Lifecycle and crash-recovery coverage: submit-after-Close refusal,
// queued-job cancellation honesty, torn provenance tails, and the
// end-to-end durable-job contract — a daemon killed mid-fit restarts
// over the same store directory, recovers the job from its checkpoint,
// and finishes with the exact edge list an uninterrupted run produces.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"wpinq/internal/synth"
)

func TestSubmitAfterCloseRefused(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{Workers: 1})
	svc.Close()
	if _, err := svc.SubmitJob(JobRequest{Measurement: mID, Steps: 10}); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("submit after close: got %v, want ErrManagerClosed", err)
	}
	if _, err := svc.Jobs().Resume("j1"); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("resume after close: got %v, want ErrManagerClosed", err)
	}
}

func TestCancelQueuedJobImmediatelyTerminal(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{Workers: 1})
	long, err := svc.SubmitJob(JobRequest{Measurement: mID, Steps: 50_000_000, ProgressEvery: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.SubmitJob(JobRequest{Measurement: mID, Steps: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Jobs().Active(); got != 2 {
		t.Fatalf("Active() = %d with one running and one queued job, want 2", got)
	}
	st, err := svc.Jobs().Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The cancel itself must return the terminal state: no window where
	// the job is cancelled but still reported queued.
	if st.State != JobCancelled {
		t.Errorf("Cancel returned state %s, want cancelled", st.State)
	}
	j, err := svc.jobs.get(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Error("queued job not terminal immediately after Cancel")
	}
	if got := svc.Jobs().Active(); got != 1 {
		t.Errorf("Active() = %d after cancelling the queued job, want 1", got)
	}
	// Resuming a live job is an idempotent no-op.
	if rst, err := svc.Jobs().Resume(long.ID); err != nil || rst.ID != long.ID {
		t.Errorf("Resume of a running job: %+v, %v", rst, err)
	}
	if _, err := svc.Jobs().Resume("j404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Resume of an unknown job: got %v, want ErrNotFound", err)
	}
	if _, err := svc.Jobs().Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullRefuses fills the queue behind one running job and
// submits one more, in process and over HTTP. Both are refused with
// ErrQueueFull (503, queue_full), the refused jobs are failed, not
// left queued, and once Close has finished every job the live-job
// gauge reads what it read before the service started.
func TestQueueFullRefuses(t *testing.T) {
	before := jobsActive.Value()
	svc, _, mID := measureOnce(t, Options{Workers: 1})
	long, err := svc.SubmitJob(JobRequest{Measurement: mID, Steps: 50_000_000, ProgressEvery: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The one worker takes the long job off the queue, which leaves all
	// of the queue to fill.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := svc.Jobs().Get(long.ID); st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the long job never started")
		}
	}
	for i := range jobQueueDepth {
		if _, err := svc.SubmitJob(JobRequest{Measurement: mID, Steps: 10, Seed: int64(i + 1)}); err != nil {
			t.Fatalf("submission %d of %d: %v", i+1, jobQueueDepth, err)
		}
	}
	st, err := svc.SubmitJob(JobRequest{Measurement: mID, Steps: 10, Seed: 1})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit to a full queue: got %v, want ErrQueueFull", err)
	}
	if st.State != JobFailed || st.Error != ErrQueueFull.Error() {
		t.Errorf("refused job: state %s, error %q; want failed, %q", st.State, st.Error, ErrQueueFull.Error())
	}
	if got, err := svc.Jobs().Get(st.ID); err != nil || got.State != JobFailed {
		t.Errorf("refused job as listed: %+v, %v; want failed", got, err)
	}

	rec := postRaw(svc.Handler(), "/v1/jobs", []byte(`{"measurement":"`+mID+`","steps":10}`))
	var api APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &api); err != nil {
		t.Fatalf("body %q is not an APIError: %v", rec.Body, err)
	}
	if rec.Code != http.StatusServiceUnavailable || api.Code != CodeQueueFull {
		t.Errorf("POST /v1/jobs to a full queue: %d %s, want %d %s", rec.Code, api.Code, http.StatusServiceUnavailable, CodeQueueFull)
	}

	svc.Close()
	if got := jobsActive.Value(); got != before {
		t.Errorf("wpinq_jobs_active = %v after Close, want %v as before", got, before)
	}
}

// TestDurableJobRetiresCheckpointBeforeDone pins the order of a durable
// job's last two acts: the checkpoint is retired first, then the job
// turns terminal. In the other order a waiter woken by Done() could find
// the checkpoint of a finished job still in the store — as
// TestCrashRecoveryResumesDurableJob's retirement check did under load,
// and as anything listing Store.Checkpoints() after its jobs finished
// could. The waiter spins rather than blocks so that it looks the moment
// the job is terminal, not a scheduler wake-up later.
func TestDurableJobRetiresCheckpointBeforeDone(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, Options{Dir: dir, Workers: 1, Seed: 1})
	ds, err := svc.Registry().Upload("retire", tbiCost, bytes.NewReader(edgeListBytes(t, testGraph(t, 40))))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st, err := svc.SubmitJob(JobRequest{
			Measurement: res.Measurement.ID, Steps: 300, CheckpointEvery: 100, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		j, err := svc.jobs.get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		ckptPath := filepath.Join(dir, "ckpt-"+st.ID+".json")
		checkpointed := false
		for done := false; !done; {
			select {
			case <-j.Done():
				done = true
			default:
				if _, err := os.Stat(ckptPath); err == nil {
					checkpointed = true
				}
				runtime.Gosched()
			}
		}
		if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
			t.Fatalf("job %s is done but its checkpoint is still in the store (stat: %v)", st.ID, err)
		}
		if ids := svc.Store().Checkpoints(); len(ids) != 0 {
			t.Fatalf("job %s is done but the store lists checkpoints %v", st.ID, ids)
		}
		if got := j.Status(); got.State != JobDone {
			t.Fatalf("job %s finished %s (%s)", st.ID, got.State, got.Error)
		}
		if !checkpointed {
			t.Logf("job %s: no checkpoint observed while it ran", st.ID)
		}
	}
}

// waitForCheckpoint blocks until a running durable job has persisted a
// checkpoint at path.
func waitForCheckpoint(t *testing.T, path string) {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		select {
		case <-deadline:
			t.Fatal("job never wrote a checkpoint")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestCrashRecoveryResumesDurableJob is the service-level half of the
// durability claim: kill the daemon mid-fit (Close with the job still
// running plays the orderly part; the checkpoint file would survive a
// SIGKILL identically since every write is an fsynced rename), restart
// over the same directory, and the recovered job finishes bit-identical
// to an unbroken run of the same request.
func TestCrashRecoveryResumesDurableJob(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Workers: 1, Seed: 1}
	svc1 := newTestService(t, opts)
	g := testGraph(t, 60)
	ds, err := svc1.Registry().Upload("crash", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc1.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{
		Measurement: res.Measurement.ID, Steps: 40_000,
		ProgressEvery: 100, CheckpointEvery: 500, Seed: 42,
	}
	job, err := svc1.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if job.CheckpointEvery != 500 {
		t.Fatalf("submitted job checkpointEvery = %d, want 500", job.CheckpointEvery)
	}
	ckptPath := filepath.Join(dir, "ckpt-"+job.ID+".json")
	waitForCheckpoint(t, ckptPath)
	svc1.Close() // dies mid-fit: the checkpoint must survive

	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("checkpoint gone after mid-job shutdown: %v", err)
	}

	svc2 := newTestService(t, opts)
	j, err := svc2.jobs.get(job.ID)
	if err != nil {
		t.Fatalf("boot recovery did not re-queue job %s: %v", job.ID, err)
	}
	<-j.Done()
	st := j.Status()
	if st.State != JobDone {
		t.Fatalf("recovered job finished %s (%s), want done", st.State, st.Error)
	}
	if st.ResumedFrom <= 0 || st.ResumedFrom >= req.Steps {
		t.Errorf("recovered job resumedFrom = %d, want a mid-run checkpoint step", st.ResumedFrom)
	}
	resumed, _, err := svc2.Jobs().Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A cleanly finished durable job retires its checkpoint.
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Errorf("checkpoint not retired after clean finish: %v", err)
	}

	// The golden run: the identical request, uninterrupted, on the
	// recovered service (the store still holds the measurement).
	golden, err := svc2.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	jg, err := svc2.jobs.get(golden.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-jg.Done()
	if st := jg.Status(); st.State != JobDone {
		t.Fatalf("golden job finished %s (%s), want done", st.State, st.Error)
	}
	goldenG, _, err := svc2.Jobs().Result(golden.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(edgeListBytes(t, resumed), edgeListBytes(t, goldenG)) {
		t.Error("recovered job's edge list differs from the uninterrupted run")
	}
}

// TestBootCountsParentFormatCheckpointAsStale pins what a daemon
// upgraded across a checkpoint format cut does with a job it was killed
// in the middle of: a `wpinq-checkpoint v1`, `v2` or `v3` file is counted
// under wpinq_job_restores_total{outcome="stale"}, left on disk, and
// neither re-queued nor allowed to fail the boot; an explicit resume of it
// is refused as stale, 409 over HTTP.
func TestBootCountsParentFormatCheckpointAsStale(t *testing.T) {
	reheader := func(header string) func(*testing.T, []byte) []byte {
		return func(t *testing.T, current []byte) []byte {
			return bytes.Replace(current, []byte("wpinq-checkpoint v4\n"), []byte(header), 1)
		}
	}
	for _, tc := range []struct {
		name    string
		rewrite func(*testing.T, []byte) []byte
	}{
		{"v1", reheader("wpinq-checkpoint v1\n")},
		{"v2", reheader("wpinq-checkpoint v2\n")},
		{"v3", reheader("wpinq-checkpoint v3\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Dir: dir, Workers: 1, Seed: 1}
			svc1, _, mID := measureOnce(t, opts)
			job, err := svc1.SubmitJob(JobRequest{
				Measurement: mID, Steps: 50_000_000, ProgressEvery: 100, CheckpointEvery: 200, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			ckptPath := filepath.Join(dir, "ckpt-"+job.ID+".json")
			waitForCheckpoint(t, ckptPath)
			svc1.Close()
			current, err := os.ReadFile(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			old := tc.rewrite(t, current)
			if bytes.Equal(old, current) {
				t.Fatalf("rewrite left the checkpoint unchanged: %q", current[:32])
			}
			if err := os.WriteFile(ckptPath, old, 0o644); err != nil {
				t.Fatal(err)
			}

			stale := jobRestores.With("stale")
			before := stale.Value()
			svc2, err := New(opts)
			if err != nil {
				t.Fatalf("a parent-format checkpoint failed the boot: %v", err)
			}
			t.Cleanup(svc2.Close)
			if got := stale.Value() - before; got != 1 {
				t.Errorf("boot counted %v stale restores, want 1", got)
			}
			if _, err := svc2.Jobs().Get(job.ID); !errors.Is(err, ErrNotFound) {
				t.Errorf("the stale job was re-queued (err=%v)", err)
			}
			if _, err := os.Stat(ckptPath); err != nil {
				t.Errorf("the refused checkpoint was not left on disk: %v", err)
			}
			if _, err := svc2.ResumeJob(job.ID); !errors.Is(err, synth.ErrCheckpointStale) {
				t.Errorf("explicit resume: got %v, want ErrCheckpointStale", err)
			}
			srv := httptest.NewServer(svc2.Handler())
			t.Cleanup(srv.Close)
			var api *APIError
			if _, err := NewClient(srv.URL).ResumeJob(job.ID); !errors.As(err, &api) ||
				api.Status != http.StatusConflict || api.Code != CodeCheckpointStale {
				t.Errorf("POST resume: got %v, want 409 %s", err, CodeCheckpointStale)
			}
		})
	}
}

// TestBootSkipsTheIDOfAKeptCheckpoint boots over a directory holding an
// unusable ckpt-j1.json, which recovery leaves on disk. Its ID is taken:
// a durable job submitted after the boot must be issued another one, and
// so can neither overwrite the kept file at its first checkpoint nor
// delete it at its clean finish.
func TestBootSkipsTheIDOfAKeptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Workers: 1, Seed: 1}
	svc1, _, mID := measureOnce(t, opts)
	svc1.Close()
	kept := filepath.Join(dir, "ckpt-j1.json")
	corrupt := []byte("wpinq-checkpoint v3\nnot a checkpoint\n")
	if err := os.WriteFile(kept, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := newTestService(t, opts)
	st, err := svc2.SubmitJob(JobRequest{Measurement: mID, Steps: 300, CheckpointEvery: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "j1" {
		t.Errorf("a fresh job was issued j1, the ID of the checkpoint kept on disk")
	}
	j, err := svc2.jobs.get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if got := j.Status(); got.State != JobDone {
		t.Fatalf("job %s finished %s (%s)", st.ID, got.State, got.Error)
	}
	if got, err := os.ReadFile(kept); err != nil || !bytes.Equal(got, corrupt) {
		t.Errorf("the kept checkpoint changed under job %s: %q, %v", st.ID, got, err)
	}
}

func TestTornProvenanceTailHandling(t *testing.T) {
	dir := t.TempDir()
	svc, dsID, _ := measureOnce(t, Options{Dir: dir})
	want := len(svc.Store().Provenance(dsID))
	svc.Close()
	path := filepath.Join(dir, provenanceFile)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A torn tail — a partial record with no trailing newline, what a
	// crash mid-append leaves behind — is truncated away, not fatal.
	torn := append(append([]byte{}, clean...), []byte(`{"v":"v2","seq":1,"da`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(dir, nil)
	if err != nil {
		t.Fatalf("torn tail refused boot: %v", err)
	}
	if got := len(st.Provenance(dsID)); got != want {
		t.Errorf("after torn-tail truncation: %d records, want %d", got, want)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, clean) {
		t.Error("torn tail not truncated from the ledger file")
	}

	// A final record that parses and chain-verifies but lost only its
	// newline is repaired in place.
	if err := os.WriteFile(path, bytes.TrimRight(clean, "\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = NewStore(dir, nil)
	if err != nil {
		t.Fatalf("unterminated valid tail refused boot: %v", err)
	}
	if got := len(st.Provenance(dsID)); got != want {
		t.Errorf("after newline repair: %d records, want %d", got, want)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, clean) {
		t.Error("missing final newline not repaired")
	}

	// Garbage WITH a newline was never a torn append — it is genuine
	// corruption and still refuses boot.
	bad := append(append([]byte{}, clean...), []byte("garbage\n")...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(dir, nil); err == nil {
		t.Error("newline-terminated garbage accepted")
	}
}
