package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wpinq/internal/synth"
)

func newTestClient(t *testing.T, opts Options) *Client {
	t.Helper()
	svc := newTestService(t, opts)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

// TestEndToEndOverHTTP drives the full two-party workflow over the
// wire: the curator uploads a graph with budget for exactly one
// measurement bundle, measures it (debiting the budget and discarding
// the graph), and is refused a second measurement with a structured
// overdraw error; the analyst lists and fetches the release, runs an
// async synthesis job, polls it, and downloads a synthetic edge list
// whose fit score and edge list are bit-identical to the same workflow
// run in-process at one shard with the same seeds.
func TestEndToEndOverHTTP(t *testing.T) {
	const (
		measureSeed = 101
		jobSeed     = 202
		steps       = 400
	)
	client := newTestClient(t, Options{})
	g := testGraph(t, 60)

	// Curator: upload with budget for exactly one TbI bundle.
	ds, err := client.Upload("caltech", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Nodes != g.NumNodes() || ds.Edges != g.NumEdges() || ds.Ledger.Remaining != tbiCost {
		t.Fatalf("upload info %+v does not match graph (%d nodes, %d edges)", ds, g.NumNodes(), g.NumEdges())
	}

	// Curator: measure; the budget is debited and the graph discarded.
	mres, err := client.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: measureSeed})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Cost != tbiCost || !mres.Discarded {
		t.Fatalf("measure result %+v, want cost %g and discarded", mres, tbiCost)
	}
	if mres.Ledger.Remaining > 1e-9 {
		t.Errorf("remaining budget %g after exact spend", mres.Ledger.Remaining)
	}

	// A second measurement past the budget: structured overdraw error.
	_, err = client.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 9})
	var api *APIError
	if !errors.As(err, &api) || api.Code != CodeInsufficientBudget {
		t.Fatalf("second measure: got %v, want APIError %s", err, CodeInsufficientBudget)
	}
	if api.Status != http.StatusPaymentRequired || api.Requested != tbiCost {
		t.Errorf("overdraw detail: %+v", api)
	}

	// Analyst: list and fetch the release; the stored bytes are the
	// ground truth everything downstream must agree on.
	list, err := client.Measurements()
	if err != nil || len(list) != 1 || list[0].ID != mres.Measurement.ID {
		t.Fatalf("measurement listing %v (%v)", list, err)
	}
	stored, err := client.Measurement(mres.Measurement.ID)
	if err != nil {
		t.Fatal(err)
	}
	check, err := synth.LoadMeasurements(bytes.NewReader(stored), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, hasTbI := check.Fits["tbi"]; check.Eps != 1 || !hasTbI || len(check.Fits) != 1 {
		t.Fatalf("fetched release has wrong shape: eps=%g fits=%v", check.Eps, check.FitNames())
	}

	// Analyst: async synthesis job, polled to completion.
	job, err := client.SubmitJob(JobRequest{
		Measurement:   mres.Measurement.ID,
		Steps:         steps,
		Seed:          jobSeed,
		ProgressEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitJob(job.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || final.Step != steps {
		t.Fatalf("job finished as %+v", final)
	}
	synthetic, err := client.JobResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if synthetic.NumEdges() == 0 {
		t.Fatal("synthetic graph is empty")
	}

	// The job must reproduce the in-process workflow exactly: load the
	// same release bytes, seed, and fit with the same rng, and compare fit
	// score and edge list.
	rng := rand.New(rand.NewSource(jobSeed))
	m2, err := synth.LoadMeasurements(bytes.NewReader(stored), rng)
	if err != nil {
		t.Fatal(err)
	}
	seedG, err := synth.SeedGraph(m2, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(m2, seedG, synth.Config{
		Eps: m2.Eps, Workloads: []string{"tbi"}, Pow: 10000, Steps: steps,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(final.Score) != math.Float64bits(res.Stats.FinalScore) {
		t.Errorf("fit score over HTTP %v != in-process %v", final.Score, res.Stats.FinalScore)
	}
	want := edgeListBytes(t, res.Synthetic)
	got := edgeListBytes(t, synthetic)
	if !bytes.Equal(got, want) {
		t.Error("synthetic edge list differs from in-process run with identical seeds")
	}
}

// TestConcurrentOverdrawOverHTTP hammers one dataset with parallel
// measurement requests; the ledger admits exactly the affordable number.
func TestConcurrentOverdrawOverHTTP(t *testing.T) {
	client := newTestClient(t, Options{})
	g := testGraph(t, 60)
	ds, err := client.Upload("race", 2*tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 8
	var wg sync.WaitGroup
	errs := make([]error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Measure(ds.ID, MeasureRequest{
				Eps: 1, Workloads: []string{"tbi"}, Keep: true, Seed: int64(300 + i),
			})
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
			continue
		}
		var api *APIError
		if !errors.As(err, &api) || api.Code != CodeInsufficientBudget {
			t.Fatalf("unexpected failure: %v", err)
		}
	}
	if ok != 2 {
		t.Fatalf("%d concurrent measurements succeeded, want exactly 2", ok)
	}
	after, err := client.Dataset(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Ledger.Spent != 2*tbiCost {
		t.Errorf("spent %g, want %g", after.Ledger.Spent, 2*tbiCost)
	}
}

// TestJobRequestRefusesRetiredFields pins the wire format's one rule for
// a field the server does not read: the request is refused as a 400
// bad_request, queues nothing and takes no job ID. "fuse" left with the
// fusion choice (every plan fuses), "shards" with the executor width (the
// engine is one partition), and "chains" and "swapEvery" with replica
// exchange (a fit is one chain); a client still sending any of them is
// told so instead of being served a fit it did not ask for.
func TestJobRequestRefusesRetiredFields(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{Workers: 1})
	h := svc.Handler()
	for _, tc := range []struct{ name, field string }{
		{"fuse=false", `"fuse":false`},
		{"shards=4", `"shards":4`},
		{"shards=-1", `"shards":-1`},
		{"chains=2", `"chains":2`},
		{"swapEvery=512", `"swapEvery":512`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := svc.jobs.nextID
			rec := postRaw(h, "/v1/jobs", []byte(`{"measurement":"`+mID+`","steps":50,"seed":3,`+tc.field+`}`))
			var api APIError
			if err := json.Unmarshal(rec.Body.Bytes(), &api); err != nil || rec.Code != http.StatusBadRequest || api.Code != CodeBadRequest {
				t.Fatalf("job request carrying %s: got %d %q (%v), want 400 %s", tc.field, rec.Code, rec.Body, err, CodeBadRequest)
			}
			if jobs := svc.Jobs().List(); len(jobs) != 0 {
				t.Errorf("%d jobs queued, want none", len(jobs))
			}
			if after := svc.jobs.nextID; after != before {
				t.Errorf("next job ID moved %d -> %d", before, after)
			}
		})
	}
	// The same request without the retired field is served.
	rec := postRaw(h, "/v1/jobs", []byte(`{"measurement":"`+mID+`","steps":50,"seed":3}`))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("plain job request: got %d %q, want 202", rec.Code, rec.Body)
	}
}

// TestCancelJobOverHTTP covers Client.CancelJob: cancelling a live job
// returns its status, the job ends cancelled, and cancelling it again is
// the 409 job_finished refusal.
func TestCancelJobOverHTTP(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	job, err := client.SubmitJob(JobRequest{Measurement: mID, Steps: 50_000_000, ProgressEvery: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.CancelJob(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != job.ID || st.Steps != job.Steps {
		t.Errorf("cancel returned %+v, want the status of job %s", st, job.ID)
	}
	final, err := client.WaitJob(job.ID, 5*time.Millisecond, nil)
	if err != nil || final.State != JobCancelled {
		t.Fatalf("cancelled job finished %+v, %v", final, err)
	}
	_, err = client.CancelJob(job.ID)
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusConflict || api.Code != CodeJobFinished {
		t.Fatalf("second cancel: %v, want 409 %s", err, CodeJobFinished)
	}
}

func TestHTTPErrorShapes(t *testing.T) {
	client := newTestClient(t, Options{})
	if h, err := client.Health(); err != nil {
		t.Fatal(err)
	} else if h.Status != "ok" {
		t.Fatalf("health status = %q, want ok", h.Status)
	}
	cases := []struct {
		name string
		err  error
		code string
	}{
		{"unknown dataset", func() error { _, err := client.Dataset("d404"); return err }(), CodeNotFound},
		{"unknown measurement", func() error { _, err := client.Measurement("m404"); return err }(), CodeNotFound},
		{"unknown job", func() error { _, err := client.Job("j404"); return err }(), CodeNotFound},
		{"resume without checkpoint", func() error { _, err := client.ResumeJob("j404"); return err }(), CodeNotFound},
		{"bad upload", func() error {
			_, err := client.Upload("x", 1, bytes.NewReader([]byte("not numbers here\n")))
			return err
		}(), CodeBadRequest},
		{"missing budget", func() error {
			_, err := client.Upload("x", 0, bytes.NewReader([]byte("0 1\n")))
			return err
		}(), CodeBadRequest},
	}
	for _, c := range cases {
		var api *APIError
		if !errors.As(c.err, &api) || api.Code != c.code {
			t.Errorf("%s: got %v, want code %s", c.name, c.err, c.code)
		}
	}

	// Hostile JSON bodies, served in memory: a body over the cap is a typed
	// 413 before any of it is interpreted, bytes after the JSON value and a
	// field the endpoint does not read are a 400, and none of them charges
	// the ledger or queues a job.
	svc := newTestService(t, Options{})
	info, err := svc.Registry().Upload("g", 9, strings.NewReader("0 1\n1 2\n0 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	spent := math.Float64bits(info.Ledger.Spent)
	huge := []byte(`{"workloads":"` + strings.Repeat("a", 2<<20) + `"}`)
	trailingMeasure := []byte(`{"eps":1}garbage`)
	trailingJob := []byte(`{"steps":1}garbage`)
	for _, c := range []struct {
		name, path string
		body       []byte
		status     int
		code, msg  string
	}{
		{"oversized measure", "/v1/datasets/" + info.ID + "/measure", huge, http.StatusRequestEntityTooLarge, CodeRequestTooLarge, "too large"},
		{"oversized job", "/v1/jobs", huge, http.StatusRequestEntityTooLarge, CodeRequestTooLarge, "too large"},
		{"trailing bytes on measure", "/v1/datasets/" + info.ID + "/measure", trailingMeasure, http.StatusBadRequest, CodeBadRequest, "trailing data"},
		{"trailing bytes on job", "/v1/jobs", trailingJob, http.StatusBadRequest, CodeBadRequest, "trailing data"},
		{"job field on measure", "/v1/datasets/" + info.ID + "/measure", []byte(`{"eps":1,"steps":1}`), http.StatusBadRequest, CodeBadRequest, `unknown field "steps"`},
		// Resuming is POST /v1/jobs/{id}/resume alone: a retired "resume"
		// field is refused like "fuse".
		{"retired resume field", "/v1/jobs", []byte(`{"resume":"j1"}`), http.StatusBadRequest, CodeBadRequest, `unknown field "resume"`},
	} {
		rec := postRaw(svc.Handler(), c.path, c.body)
		var api APIError
		if err := json.Unmarshal(rec.Body.Bytes(), &api); err != nil {
			t.Errorf("%s: body %q is not an APIError: %v", c.name, rec.Body, err)
		}
		if rec.Code != c.status || api.Code != c.code || !strings.Contains(api.Message, c.msg) {
			t.Errorf("%s: got %d %s %q, want %d %s …%s…", c.name, rec.Code, api.Code, api.Message, c.status, c.code, c.msg)
		}
		now, err := svc.Registry().Info(info.ID)
		if err != nil || math.Float64bits(now.Ledger.Spent) != spent {
			t.Errorf("%s: ledger spent %v (err %v), want it untouched", c.name, now.Ledger.Spent, err)
		}
		if jobs := svc.Jobs().List(); len(jobs) != 0 {
			t.Errorf("%s: %d jobs queued, want none", c.name, len(jobs))
		}
	}
}

// postRaw serves one JSON POST of body to path through h, in memory.
func postRaw(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
