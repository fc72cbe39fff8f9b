package service

import (
	"strconv"

	"wpinq/internal/budget"
	"wpinq/internal/obs"
)

// Service-layer metrics: HTTP traffic, job lifecycle, per-dataset
// budget ledgers, and store/provenance growth. All register against
// obs.Default, which cmd/wpinqd exposes at GET /metrics.
var (
	httpRequests = obs.Default.CounterVec("wpinq_http_requests_total",
		"API requests served, by ServeMux route pattern, method, and status.",
		"route", "method", "status")
	httpLatency = obs.Default.HistogramVec("wpinq_http_request_seconds",
		"API request latency in seconds, by route pattern.", nil, "route")
	httpWriteErrors = obs.Default.Counter("wpinq_http_response_write_errors_total",
		"Response bodies that failed mid-write (client gone or connection reset); the status line was already sent.")

	jobsTotal = obs.Default.CounterVec("wpinq_jobs_total",
		"Synthesis job state transitions (queued at submit, then one terminal state).", "state")
	jobsActive = obs.Default.Gauge("wpinq_jobs_active",
		"Synthesis jobs submitted but not yet terminal (queued + running).")

	budgetRemaining = obs.Default.GaugeVec("wpinq_dataset_budget_remaining",
		"Unspent privacy budget (epsilon) per dataset.", "dataset")
	budgetSpent = obs.Default.GaugeVec("wpinq_dataset_budget_spent",
		"Cumulative privacy budget (epsilon) charged per dataset.", "dataset")

	measurementsStored = obs.Default.Counter("wpinq_store_measurements_total",
		"Releases added to the measurement store (idempotent re-puts excluded).")
	provenanceRecords = obs.Default.Counter("wpinq_store_provenance_records_total",
		"Records appended to the provenance ledger.")
	provenanceTornTails = obs.Default.Counter("wpinq_store_provenance_torn_tails_total",
		"Torn final ledger lines (crash mid-append) truncated and discarded at boot.")

	jobSeed = obs.Default.Histogram("wpinq_job_seed_seconds",
		"Wall seconds of a job's Phase 1: degree regression, graphical rounding, Havel-Hakimi and mixing (synth.SeedGraph), once per job before its first proposal.", nil)

	jobCheckpoints = obs.Default.CounterVec("wpinq_job_checkpoints_total",
		"Durable-job checkpoints written, by outcome (ok or error).", "outcome")
	jobRestores = obs.Default.CounterVec("wpinq_job_restores_total",
		"Durable-job resume attempts (boot recovery and explicit resume), by outcome (ok, stale, or error).", "outcome")
	jobCheckpointWrite = obs.Default.Histogram("wpinq_job_checkpoint_write_seconds",
		"Wall seconds to serialize one job checkpoint and persist it (temp file, fsync, rename).", nil)
	jobCheckpointStep = obs.Default.GaugeVec("wpinq_job_checkpoint_step",
		"Step count of a job's most recent checkpoint; the series is removed when the checkpoint is deleted.", "job")
)

// recordLedger publishes one dataset's budget gauges from a consistent
// ledger snapshot.
func recordLedger(id string, snap budget.Snapshot) {
	budgetRemaining.With(id).Set(snap.Remaining)
	budgetSpent.With(id).Set(snap.Spent)
}

// recordJobState counts a job entering the given state.
func recordJobState(state string) { jobsTotal.With(state).Inc() }

// statusLabel renders an HTTP status for the requests counter.
func statusLabel(code int) string { return strconv.Itoa(code) }
