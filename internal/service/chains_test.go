package service

import (
	"bytes"
	"testing"
)

// TestMultiChainJob runs a replica-exchange synthesis job end to end:
// per-chain progress is reported while running and in the terminal
// status, the chain count can be overridden per job, and repeated
// fixed-seed jobs reproduce the same synthetic edge list.
func TestMultiChainJob(t *testing.T) {
	svc := newTestService(t, Options{Chains: 2, Workers: 1})
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
			Chains:      chains, // 0 = service default (2)
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

	first, st := runJob(0)
	if len(st.Chains) != 2 {
		t.Fatalf("terminal status has %d chains, want 2 (service default): %+v", len(st.Chains), st)
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

	// Per-job override down to a single chain: no per-chain detail.
	_, single := runJob(1)
	if len(single.Chains) != 0 {
		t.Errorf("single-chain job reports chain detail: %+v", single.Chains)
	}
}
