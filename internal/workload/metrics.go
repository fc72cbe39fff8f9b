package workload

import (
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/obs"
	"wpinq/internal/weighted"
)

// Plan-root metrics. The root is the tap for dataflow input: pushes,
// batch sizes, and transaction outcomes are recorded per root delivery —
// one counter bump and one histogram observation per MCMC proposal. (What
// each operator below the root costs is engine.Engine.Profile's to say:
// the scheduler counts every node's rounds and differences where it runs.)
var (
	planPushes = obs.Default.Counter("wpinq_plan_pushes_total",
		"Edge-difference batches pushed into plan roots.")
	planBatchSize = obs.Default.Histogram("wpinq_plan_push_batch_size",
		"Edge-difference records per plan-root push (deltas, or dataset size for bulk loads).",
		obs.SizeBuckets(24))
	planTxn    = obs.Default.CounterVec("wpinq_plan_txn_total", "Plan-root transaction control events.", "op")
	planBegin  = planTxn.With("begin")
	planCommit = planTxn.With("commit")
	planAbort  = planTxn.With("abort")
)

// obsInput decorates a plan's root input with the metrics above; Pushes
// is the executor's own counter.
type obsInput struct {
	*engine.Input[graph.Edge]
}

func (o obsInput) Push(batch []incremental.Delta[graph.Edge]) {
	planPushes.Inc()
	planBatchSize.Observe(float64(len(batch)))
	o.Input.Push(batch)
}

func (o obsInput) PushDataset(d *weighted.Dataset[graph.Edge]) {
	planPushes.Inc()
	planBatchSize.Observe(float64(d.Len()))
	o.Input.PushDataset(d)
}

func (o obsInput) Begin()  { planBegin.Inc(); o.Input.Begin() }
func (o obsInput) Commit() { planCommit.Inc(); o.Input.Commit() }
func (o obsInput) Abort()  { planAbort.Inc(); o.Input.Abort() }
