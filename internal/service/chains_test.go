package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestMultiChainJob runs a replica-exchange synthesis job end to end:
// per-chain progress is reported while running and in the terminal
// status, each job runs the chain count it asks for, and repeated
// fixed-seed jobs reproduce the same synthetic edge list.
func TestMultiChainJob(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	g := testGraph(t, 60)
	info, err := svc.Registry().Upload("chains", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := svc.SubmitJob(JobRequest{Measurement: res.Measurement.ID, Steps: 10, Chains: -1}); err == nil {
		t.Error("negative Chains accepted")
	}
	if _, err := svc.SubmitJob(JobRequest{Measurement: res.Measurement.ID, Steps: 10, SwapEvery: -1}); err == nil {
		t.Error("negative SwapEvery accepted")
	}
	// Chains multiplies per-job memory; the API refuses unbounded requests.
	if _, err := svc.SubmitJob(JobRequest{Measurement: res.Measurement.ID, Steps: 10, Chains: maxJobChains + 1}); err == nil {
		t.Error("oversized Chains accepted")
	}

	runJob := func(chains int) ([]byte, JobStatus) {
		st, err := svc.SubmitJob(JobRequest{
			Measurement: res.Measurement.ID,
			Steps:       1500,
			Chains:      chains,
			SwapEvery:   200,
			Seed:        12,
		})
		if err != nil {
			t.Fatal(err)
		}
		j, err := svc.jobs.get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		final := j.Status()
		if final.State != JobDone {
			t.Fatalf("job finished %s: %s", final.State, final.Error)
		}
		out, _, err := svc.Jobs().Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return edgeListBytes(t, out), final
	}

	first, st := runJob(2)
	if len(st.Chains) != 2 {
		t.Fatalf("terminal status has %d chains, want 2: %+v", len(st.Chains), st)
	}
	for _, c := range st.Chains {
		if c.Pow <= 0 {
			t.Errorf("chain %d reports pow %v", c.Chain, c.Pow)
		}
		if best := st.Score; c.Score < best {
			t.Errorf("chain %d score %v beats reported best %v", c.Chain, c.Score, best)
		}
	}
	if st.AcceptRate < 0 || st.AcceptRate > 1 {
		t.Errorf("accept rate %v out of range", st.AcceptRate)
	}

	// Same seed, same chain count: same synthetic graph.
	second, _ := runJob(2)
	if !bytes.Equal(first, second) {
		t.Error("identically-seeded multi-chain jobs produced different graphs")
	}

	// A single-chain job: no per-chain detail.
	_, single := runJob(1)
	if len(single.Chains) != 0 {
		t.Errorf("single-chain job reports chain detail: %+v", single.Chains)
	}
}

// TestZeroChainsIsOneChain pins a job to its request: "chains":0 is
// synth's own default of one chain, on any service, and runs the same
// fit as an explicit "chains":1 of the same seed.
func TestZeroChainsIsOneChain(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{Workers: 1})
	runJob := func(chains int) ([]byte, JobStatus, JobRequest) {
		st, err := svc.SubmitJob(JobRequest{Measurement: mID, Steps: 600, Chains: chains, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		j, err := svc.jobs.get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		out, final, err := svc.Jobs().Result(st.ID)
		if err != nil || final.State != JobDone {
			t.Fatalf("chains=%d job finished %s (%s): %v", chains, final.State, final.Error, err)
		}
		return edgeListBytes(t, out), final, j.req
	}
	zero, st, req := runJob(0)
	if len(st.Chains) != 0 || req.Chains != 1 {
		t.Fatalf("chains=0 job ran %d chain views under a request resolved to chains=%d, want one chain", len(st.Chains), req.Chains)
	}
	one, _, _ := runJob(1)
	if !bytes.Equal(zero, one) {
		t.Error("chains=0 and chains=1 jobs of one seed produced different edge lists")
	}
}

// TestNegativeCheckpointEveryIsRefused: a checkpoint cadence below 0 is
// a 400 bad_request, as a negative swapEvery is, and queues nothing —
// not even a job ID.
func TestNegativeCheckpointEveryIsRefused(t *testing.T) {
	svc, _, mID := measureOnce(t, Options{Workers: 1})
	before := svc.jobs.nextID
	rec := postRaw(svc.Handler(), "/v1/jobs", []byte(`{"measurement":"`+mID+`","steps":10,"checkpointEvery":-1}`))
	var api APIError
	if err := json.Unmarshal(rec.Body.Bytes(), &api); err != nil || rec.Code != http.StatusBadRequest || api.Code != CodeBadRequest {
		t.Fatalf("checkpointEvery=-1: got %d %q (%v), want 400 %s", rec.Code, rec.Body, err, CodeBadRequest)
	}
	if jobs := svc.Jobs().List(); len(jobs) != 0 {
		t.Errorf("%d jobs queued, want none", len(jobs))
	}
	if after := svc.jobs.nextID; after != before {
		t.Errorf("next job ID moved %d -> %d", before, after)
	}
}
