package service

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMetricsExposedOverHTTP drives measure → synthesize over the wire
// and then scrapes GET /metrics, asserting that each instrumented layer
// actually showed up on the page: HTTP traffic, job lifecycle, budget
// gauges, plan-level engine pushes, and MCMC outcomes. The obs registry
// is process-global, so assertions are presence/positivity, not exact
// counts.
func TestMetricsExposedOverHTTP(t *testing.T) {
	client := newTestClient(t, Options{})
	g := testGraph(t, 40)
	ds, err := client.Upload("obs", 2*tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	mres, err := client.Measure(ds.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	job, err := client.SubmitJob(JobRequest{Measurement: mres.Measurement.ID, Steps: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitJob(job.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if len(final.Residuals) == 0 {
		t.Fatalf("finished job reports no fit residuals")
	}
	for _, wr := range final.Residuals {
		if wr.Workload == "" || wr.Bins == 0 || len(wr.Worst) == 0 {
			t.Errorf("residual entry not populated: %+v", wr)
		}
	}

	// Which operator is hot: the finished job carries its chain's
	// executor profile, and the same stop exported it.
	var ran, stateful *OperatorProfile
	for i, op := range final.Operators {
		if op.Index != i || op.Op == "" {
			t.Errorf("operator entry %d not populated: %+v", i, op)
		}
		if op.Rounds > 0 && op.In > 0 && op.Out > 0 && ran == nil {
			ran = &final.Operators[i]
		}
		if op.State > 0 && (stateful == nil || op.In+op.Out > stateful.In+stateful.Out) {
			stateful = &final.Operators[i]
		}
	}
	if ran == nil || stateful == nil {
		t.Fatalf("finished job's operators %+v: want one with rounds, in and out > 0 and a stateful one with state > 0", final.Operators)
	}

	page, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	text := string(page)
	for _, m := range []string{
		fmt.Sprintf(`wpinq_fit_operator_records{node="%d",op="%s",dir="in"}`, stateful.Index, stateful.Op),
		fmt.Sprintf(`wpinq_fit_operator_records{node="%d",op="%s",dir="out"}`, stateful.Index, stateful.Op),
		fmt.Sprintf(`wpinq_fit_operator_state_records{node="%d",op="%s"}`, stateful.Index, stateful.Op),
		`wpinq_http_requests_total{route="POST /v1/datasets/{id}/measure",method="POST",status="200"}`,
		`wpinq_http_request_seconds_count{route="GET /v1/jobs/{id}"}`,
		`wpinq_jobs_total{state="done"}`,
		`wpinq_dataset_budget_spent{dataset="` + ds.ID + `"}`,
		`wpinq_dataset_budget_remaining{dataset="` + ds.ID + `"}`,
		`wpinq_plan_pushes_total`,
		`wpinq_plan_txn_total{op="begin"}`,
		`wpinq_mcmc_steps_total{outcome="accepted"}`,
		`wpinq_fit_chunk_accept_ratio_count`,
		`wpinq_store_measurements_total`,
		`wpinq_store_provenance_records_total`,
	} {
		if v, ok := metricValue(text, m); !ok {
			t.Errorf("metric %s missing from /metrics", m)
		} else if v <= 0 {
			t.Errorf("metric %s = %g, want > 0", m, v)
		}
	}
	if v, ok := metricValue(text, `wpinq_dataset_budget_spent{dataset="`+ds.ID+`"}`); ok && v != tbiCost {
		t.Errorf("budget spent gauge = %g, want %g", v, tbiCost)
	}
	// A fit is one chain: no fit metric carries a chain label, and there
	// is no swap or pow series.
	for _, gone := range []string{`chain="`, "wpinq_mcmc_swaps_total", "wpinq_mcmc_chain_pow"} {
		if strings.Contains(text, gone) {
			t.Errorf("/metrics still exports %s", gone)
		}
	}

	// The provenance endpoint and a client-side audit complete the
	// analyst's loop over the same HTTP surface.
	info, err := client.Provenance(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Records) != 1 || info.Ledger.Spent != tbiCost {
		t.Fatalf("provenance endpoint returned %+v", info)
	}
	rep, err := client.AuditDataset(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("client-side audit failed: %v", rep.Problems)
	}
}

var metricLineRe = regexp.MustCompile(`[ \t]+([0-9.eE+-]+|NaN|\+Inf|-Inf)$`)

// metricValue finds series (a full name{labels} prefix) in a metrics
// page and parses its value.
func metricValue(page, series string) (float64, bool) {
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := line[len(series):]
		m := metricLineRe.FindStringSubmatch(rest)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		return v, true
	}
	return 0, false
}
