package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wpinq/internal/graph"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

// jobQueueDepth bounds how many submitted-but-unstarted jobs the
// manager will hold before refusing submissions with ErrQueueFull.
const jobQueueDepth = 256

// maxJobChains bounds the replica-exchange chain count a single job may
// request. Every chain owns full fit pipelines, so Chains multiplies
// resident memory; an unbounded network-facing knob would let one
// request OOM the daemon.
const maxJobChains = 64

// Job states reported by JobStatus.State.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobCancelled = "cancelled"
	JobFailed    = "failed"
)

// JobRequest submits an asynchronous synthesis run against a stored
// release. Everything after submission consumes only the release: jobs
// are analyst-side work with no privacy cost.
type JobRequest struct {
	// Measurement is the stored release ID to fit against (required).
	Measurement string `json:"measurement"`
	// Workloads selects which of the release's fit measurements to fit
	// against, by registry name. Empty fits every workload the release
	// contains.
	Workloads []string `json:"workloads,omitempty"`
	// Steps is the MCMC step count (required, > 0).
	Steps int `json:"steps"`
	// Pow sharpens the posterior (default 10000, the paper's setting).
	Pow float64 `json:"pow,omitempty"`
	// Seed, when non-zero, fixes the job rng (measurement lazy noise,
	// seed-graph construction, and the MCMC walk) for reproducibility.
	Seed int64 `json:"seed,omitempty"`
	// ProgressEvery is the progress-update cadence in MCMC steps
	// (default 1024). It also bounds cancellation latency.
	ProgressEvery int `json:"progressEvery,omitempty"`
	// Chains is the replica-exchange chain count (synth.Config.Chains
	// semantics; 0 uses the service default, which itself defaults to a
	// single chain).
	Chains int `json:"chains,omitempty"`
	// SwapEvery is the replica swap interval in steps (default 1024;
	// only meaningful when the job runs more than one chain). Swap
	// rounds are progress and cancellation points too.
	SwapEvery int `json:"swapEvery,omitempty"`
	// CheckpointEvery makes the job durable: every that many steps it
	// persists a resumable checkpoint through the store, and a daemon
	// restart re-queues it from the last one (synth.Config.CheckpointEvery
	// semantics; see DESIGN.md "Durable jobs"). 0 uses the service
	// default; a negative value disables checkpointing explicitly.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
}

// WorkloadResidual, BinResidual and OperatorProfile re-export the synth
// diagnostic views so API clients need only this package.
type (
	WorkloadResidual = synth.WorkloadResidual
	BinResidual      = synth.BinResidual
	OperatorProfile  = synth.OperatorProfile
)

// JobStatus is the pollable view of one job.
type JobStatus struct {
	ID          string  `json:"id"`
	Measurement string  `json:"measurement"`
	State       string  `json:"state"`
	Steps       int     `json:"steps"`
	Step        int     `json:"step"`
	Accepted    int     `json:"accepted"`
	AcceptRate  float64 `json:"acceptRate"`
	Score       float64 `json:"score"`
	Seed        int64   `json:"seed"`
	SeedNodes   int     `json:"seedNodes,omitempty"`
	SeedEdges   int     `json:"seedEdges,omitempty"`
	ResultNodes int     `json:"resultNodes,omitempty"`
	ResultEdges int     `json:"resultEdges,omitempty"`
	// CheckpointEvery is the job's resolved checkpoint cadence in steps
	// (0 = not durable); ResumedFrom is the checkpoint step the job was
	// re-queued from, for recovered or explicitly resumed jobs.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	ResumedFrom     int `json:"resumedFrom,omitempty"`
	// Chains is the per-chain progress of a replica-exchange job (pow
	// assignment, accepted proposals and swaps, current score), in chain
	// order; absent for single-chain jobs. The top-level Step, Score,
	// Accepted, and AcceptRate track the best chain.
	Chains []synth.ChainProgress `json:"chains,omitempty"`
	// Residuals breaks the current score into per-workload fit residuals
	// (L1 distance to the released noisy counts, weighted by epsilon)
	// with the worst-fitting bins of each workload — the diagnostic for
	// which workload the sampler is failing to match. Updated at each
	// progress checkpoint and final on termination.
	Residuals []synth.WorkloadResidual `json:"residuals,omitempty"`
	// Operators is the best chain's executor profile, one entry per
	// dataflow node: rounds run, differences in and out, records indexed
	// (counted from the chain's last checkpoint re-anchor). Updated with
	// Residuals.
	Operators []synth.OperatorProfile `json:"operators,omitempty"`
	Error     string                  `json:"error,omitempty"`
}

// Terminal reports whether the job has stopped (done, cancelled, or
// failed).
func (js JobStatus) Terminal() bool {
	return js.State == JobDone || js.State == JobCancelled || js.State == JobFailed
}

// Job is one asynchronous synthesis run.
type Job struct {
	req    JobRequest        // immutable after Submit
	resume *synth.Checkpoint // non-nil for recovered/resumed jobs

	mu        sync.Mutex
	status    JobStatus
	result    *graph.Graph
	cancelled atomic.Bool
	done      chan struct{}
}

// JobManager runs synthesis jobs on a bounded worker pool. Jobs past
// the pool size queue; cancellation reaches queued jobs immediately and
// running jobs at their next progress checkpoint.
type JobManager struct {
	store           *Store
	defaultChains   int
	defaultCkptEvry int
	log             *slog.Logger

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []string
	nextID int

	queue     chan *Job
	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewJobManager starts workers goroutines consuming the job queue.
// defaultChains is the replica-exchange chain count applied to jobs that
// do not set one (values below 1 mean a single chain).
// defaultCheckpointEvery is the checkpoint cadence for jobs that do not
// set one (0 leaves jobs non-durable). A nil logger discards job
// lifecycle logs.
func NewJobManager(store *Store, defaultChains, workers, defaultCheckpointEvery int, logger *slog.Logger) *JobManager {
	if workers < 1 {
		workers = 1
	}
	if defaultChains < 1 {
		defaultChains = 1
	}
	if defaultCheckpointEvery < 0 {
		defaultCheckpointEvery = 0
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	jm := &JobManager{
		store:           store,
		defaultChains:   defaultChains,
		defaultCkptEvry: defaultCheckpointEvery,
		log:             logger,
		jobs:            make(map[string]*Job),
		queue:           make(chan *Job, jobQueueDepth),
		quit:            make(chan struct{}),
	}
	jm.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go jm.worker()
	}
	return jm
}

// Close cancels every live job and waits for the workers to exit.
// Jobs still queued are finished as cancelled, so waiters on their
// Done channels unblock. Closing an already-closed manager is a no-op.
// After Close, Submit and Resume refuse with ErrManagerClosed: the
// workers are gone, so anything enqueued later would sit queued
// forever.
func (jm *JobManager) Close() {
	jm.mu.Lock()
	jm.closed = true
	for _, j := range jm.jobs {
		j.cancelled.Store(true)
	}
	jm.mu.Unlock()
	jm.closeOnce.Do(func() { close(jm.quit) })
	jm.wg.Wait()
	for {
		select {
		case j := <-jm.queue:
			j.finish(func(st *JobStatus) { st.State = JobCancelled })
		default:
			return
		}
	}
}

// Submit validates and enqueues a job.
func (jm *JobManager) Submit(req JobRequest) (JobStatus, error) {
	if req.Steps <= 0 {
		return JobStatus{}, fmt.Errorf("job Steps must be positive, got %d", req.Steps)
	}
	info, err := jm.store.Info(req.Measurement)
	if err != nil {
		return JobStatus{}, err
	}
	if _, err := workload.Resolve(req.Workloads); err != nil {
		return JobStatus{}, err
	}
	// Reject workloads the release does not contain at submission time
	// rather than letting the job fail asynchronously after queueing.
	have := make(map[string]bool, len(info.Kinds))
	for _, k := range info.Kinds {
		have[k] = true
	}
	for _, name := range req.Workloads {
		if !have[name] {
			return JobStatus{}, fmt.Errorf("measurement %s does not contain workload %q (kinds: %v)",
				req.Measurement, name, info.Kinds)
		}
	}
	if req.Pow == 0 {
		req.Pow = 10000
	}
	if req.Pow < 0 {
		return JobStatus{}, fmt.Errorf("job Pow must be positive, got %g", req.Pow)
	}
	if req.ProgressEvery <= 0 {
		req.ProgressEvery = 1024
	}
	if req.Chains < 0 {
		return JobStatus{}, fmt.Errorf("job Chains must be non-negative, got %d", req.Chains)
	}
	if req.Chains > maxJobChains {
		return JobStatus{}, fmt.Errorf("job Chains must be at most %d, got %d", maxJobChains, req.Chains)
	}
	if req.Chains == 0 {
		req.Chains = jm.defaultChains
	}
	if req.SwapEvery < 0 {
		return JobStatus{}, fmt.Errorf("job SwapEvery must be non-negative, got %d", req.SwapEvery)
	}
	if req.CheckpointEvery == 0 {
		req.CheckpointEvery = jm.defaultCkptEvry
	}
	if req.CheckpointEvery < 0 {
		// Negative is the explicit "off" spelling (0 means "server
		// default"); normalize so everything downstream tests > 0.
		req.CheckpointEvery = 0
	}

	// The closed check and the enqueue sit under one critical section
	// with Close's closed=true: either Submit sees closed and refuses, or
	// Close's queue drain happens after this enqueue and finishes the job
	// as cancelled. No interleaving leaves a job on a queue nobody will
	// drain.
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return JobStatus{}, ErrManagerClosed
	}
	jm.nextID++
	j := &Job{
		req: req,
		status: JobStatus{
			ID:              fmt.Sprintf("j%d", jm.nextID),
			Measurement:     req.Measurement,
			State:           JobQueued,
			Steps:           req.Steps,
			Seed:            req.Seed,
			CheckpointEvery: req.CheckpointEvery,
		},
		done: make(chan struct{}),
	}
	jm.jobs[j.status.ID] = j
	jm.order = append(jm.order, j.status.ID)
	recordJobState(JobQueued)
	jobsActive.Add(1)
	queued := false
	select {
	case jm.queue <- j:
		queued = true
	default:
	}
	jm.mu.Unlock()
	jm.log.Info("job queued", "job", j.status.ID,
		"measurement", req.Measurement, "steps", req.Steps,
		"chains", req.Chains,
		"checkpointEvery", req.CheckpointEvery)

	if !queued {
		j.finish(func(st *JobStatus) {
			st.State = JobFailed
			st.Error = ErrQueueFull.Error()
		})
		return j.Status(), ErrQueueFull
	}
	return j.Status(), nil
}

// Status returns a snapshot of the job's state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish transitions the job to a terminal state exactly once. The job
// metrics piggyback on its exactly-once guarantee: every job increments
// jobsActive at submission and decrements it here, on whichever of the
// finish paths (run, cancel-before-start, queue overflow, shutdown
// drain) fires first.
func (j *Job) finish(update func(*JobStatus)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(update)
}

// finishLocked is finish for callers already holding j.mu (Cancel
// finishes queued jobs in the same critical section that inspects
// their state).
func (j *Job) finishLocked(update func(*JobStatus)) {
	if j.status.Terminal() {
		return
	}
	update(&j.status)
	recordJobState(j.status.State)
	jobsActive.Add(-1)
	close(j.done)
}

// tryStart transitions a queued job to running, returning its ID and
// whether it actually started. A job already finished — cancelled while
// queued, or drained at shutdown — reports false and must not run: the
// terminal check and the state transition share one critical section so
// a concurrent Cancel cannot land between them.
func (j *Job) tryStart() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return j.status.ID, false
	}
	j.status.State = JobRunning
	return j.status.ID, true
}

// Get returns a job's status.
func (jm *JobManager) Get(id string) (JobStatus, error) {
	j, err := jm.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.Status(), nil
}

func (jm *JobManager) get(id string) (*Job, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	j, ok := jm.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: job %s", ErrNotFound, id)
	}
	return j, nil
}

// Active counts jobs that have not yet reached a terminal state
// (queued + running), for the health endpoint.
func (jm *JobManager) Active() int {
	n := 0
	for _, js := range jm.List() {
		if !js.Terminal() {
			n++
		}
	}
	return n
}

// List returns every job's status in submission order.
func (jm *JobManager) List() []JobStatus {
	jm.mu.Lock()
	js := make([]*Job, 0, len(jm.order))
	for _, id := range jm.order {
		js = append(js, jm.jobs[id])
	}
	jm.mu.Unlock()
	out := make([]JobStatus, 0, len(js))
	for _, j := range js {
		out = append(out, j.Status())
	}
	return out
}

// Cancel requests cancellation: queued jobs finish as cancelled
// immediately, running jobs stop at their next progress checkpoint
// (keeping the partial synthetic graph as their result). Finishing
// queued jobs here — rather than leaving them queued until a worker
// drains them — keeps Active() and wpinq_jobs_active honest: a
// cancelled job stops counting as live the moment the cancel returns.
func (jm *JobManager) Cancel(id string) (JobStatus, error) {
	j, err := jm.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return j.status, fmt.Errorf("%w: job %s", ErrJobFinished, id)
	}
	j.cancelled.Store(true)
	if j.status.State == JobQueued {
		// No worker is looking at a queued job, so nothing else will
		// observe the flag; finish it now. The worker that eventually
		// drains it from the queue skips already-terminal jobs.
		j.finishLocked(func(st *JobStatus) { st.State = JobCancelled })
	}
	return j.status, nil
}

// Result returns the synthetic graph of a finished job. Cancelled jobs
// that got far enough to hold a partial graph return it.
func (jm *JobManager) Result(id string) (*graph.Graph, JobStatus, error) {
	j, err := jm.get(id)
	if err != nil {
		return nil, JobStatus{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil, j.status, fmt.Errorf("%w: job %s is %s", ErrJobNotDone, id, j.status.State)
	}
	return j.result, j.status, nil
}

// worker consumes the queue until Close.
func (jm *JobManager) worker() {
	defer jm.wg.Done()
	for {
		select {
		case <-jm.quit:
			return
		case j := <-jm.queue:
			select {
			case <-jm.quit:
				j.finish(func(st *JobStatus) { st.State = JobCancelled })
				return
			default:
			}
			if j.cancelled.Load() {
				j.finish(func(st *JobStatus) { st.State = JobCancelled })
				continue
			}
			jm.run(j)
		}
	}
}

// checkpointMeta is the service's Checkpoint.Meta envelope: which job
// owns the checkpoint and the exact (default-resolved) request it ran
// under, so boot recovery can rebuild the run without any other state.
type checkpointMeta struct {
	Job     string     `json:"job"`
	Request JobRequest `json:"request"`
}

// run executes one job: load the release, build the seed graph, fit.
// The whole pipeline shares one rng seeded from the request, and every
// job fits at one shard — jobs and chains are the daemon's parallelism —
// so a job is a function of (stored bytes, seed), bit-identical across
// processes and to an in-process fit at Shards 1. A job with a
// checkpoint attached (boot recovery, explicit resume) replays the
// identical prefix — rng, measurement load, seed graph — and then
// continues from the checkpoint instead of step 0, at the width the
// checkpoint records.
func (jm *JobManager) run(j *Job) {
	req := j.req
	seed := req.Seed
	id, started := j.tryStart()
	if !started {
		return
	}
	recordJobState(JobRunning)
	log := jm.log.With("job", id)
	log.Info("job running", "measurement", req.Measurement, "seed", seed)
	fail := func(stage string, err error) {
		log.Error("job failed", "stage", stage, "err", err)
		j.finish(func(st *JobStatus) { st.State = JobFailed; st.Error = err.Error() })
	}

	rng := rand.New(rand.NewSource(seed))
	m, err := jm.store.Load(req.Measurement, rng)
	if err != nil {
		fail("load", err)
		return
	}
	began := time.Now()
	seedG, err := synth.SeedGraph(m, rng)
	jobSeed.Observe(time.Since(began).Seconds())
	if err != nil {
		fail("seed", err)
		return
	}
	j.mu.Lock()
	j.status.SeedNodes = seedG.NumNodes()
	j.status.SeedEdges = seedG.NumEdges()
	j.mu.Unlock()

	cfg := synth.Config{
		Eps:           m.Eps,
		Workloads:     req.Workloads, // empty = every measured workload
		Pow:           req.Pow,
		Steps:         req.Steps,
		Shards:        1,
		ProgressEvery: req.ProgressEvery,
		Chains:        req.Chains,
		SwapEvery:     req.SwapEvery,
		OnProgress: func(p synth.Progress) bool {
			j.mu.Lock()
			j.status.Step = p.Step
			j.status.Accepted = p.Accepted
			j.status.AcceptRate = p.AcceptRate()
			j.status.Score = p.Score
			j.status.Chains = p.Chains
			j.status.Residuals = p.Residuals
			j.status.Operators = p.Operators
			j.mu.Unlock()
			select {
			case <-jm.quit:
				return false
			default:
			}
			return !j.cancelled.Load()
		},
	}
	durable := req.CheckpointEvery > 0
	if durable {
		data, err := jm.store.Bytes(req.Measurement)
		if err != nil {
			fail("checkpoint-parent", err)
			return
		}
		meta, err := json.Marshal(checkpointMeta{Job: id, Request: req})
		if err != nil {
			fail("checkpoint-meta", err)
			return
		}
		cfg.CheckpointEvery = req.CheckpointEvery
		cfg.ParentHash = ContentHash(data)
		cfg.OnCheckpoint = func(ck *synth.Checkpoint) bool {
			began := time.Now()
			ck.Meta = meta
			var buf bytes.Buffer
			err := ck.Save(&buf)
			if err == nil {
				err = jm.store.PutCheckpoint(id, buf.Bytes())
			}
			jobCheckpointWrite.Observe(time.Since(began).Seconds())
			if err != nil {
				// A failed checkpoint write degrades durability, not the
				// fit: the job keeps running and the previous checkpoint
				// (if any) stays the recovery point.
				jobCheckpoints.With("error").Inc()
				log.Error("checkpoint write failed", "step", ck.Step, "err", err)
				return true
			}
			jobCheckpoints.With("ok").Inc()
			jobCheckpointStep.With(id).Set(float64(ck.Step))
			return true
		}
	}

	var res *synth.Result
	if j.resume != nil {
		j.mu.Lock()
		j.status.Step = j.resume.Step
		j.mu.Unlock()
		res, err = synth.SynthesizeResume(m, seedG, j.resume, cfg, rng)
	} else {
		res, err = synth.Synthesize(m, seedG, cfg, rng)
	}
	if err != nil {
		if j.resume != nil {
			if errors.Is(err, synth.ErrCheckpointStale) {
				jobRestores.With("stale").Inc()
			} else {
				jobRestores.With("error").Inc()
			}
		}
		// The checkpoint (if any) is deliberately kept on failure: it may
		// still be the best recovery point if the failure was transient.
		fail("synthesize", err)
		return
	}
	if j.resume != nil {
		jobRestores.With("ok").Inc()
	}
	if durable {
		// The checkpoint is settled before the job turns terminal, so
		// whoever sees Done() sees the store as the job left it. A clean
		// terminal state retires the checkpoint; an interrupt at shutdown
		// keeps it so the next boot's Recover can re-queue the job. The
		// quit channel — not the cancelled flag — is the discriminator,
		// because Close sets cancelled on every job, so a cancelled state
		// alone cannot distinguish a user's cancel (retire) from a
		// shutdown interrupt (keep).
		select {
		case <-jm.quit:
			log.Info("job interrupted by shutdown; checkpoint kept", "step", res.Stats.Steps)
		default:
			if err := jm.store.DeleteCheckpoint(id); err != nil {
				log.Error("deleting retired checkpoint", "err", err)
			} else {
				jobCheckpointStep.Remove(id)
			}
		}
	}
	j.mu.Lock()
	j.result = res.Synthetic
	j.mu.Unlock()
	j.finish(func(st *JobStatus) {
		if res.Cancelled {
			st.State = JobCancelled
		} else {
			st.State = JobDone
		}
		st.Score = res.Stats.FinalScore
		st.Accepted = res.Stats.Accepted
		st.AcceptRate = res.Stats.AcceptRate()
		st.Step = res.Stats.Steps
		st.ResultNodes = res.Synthetic.NumNodes()
		st.ResultEdges = res.Synthetic.NumEdges()
		st.Chains = synth.ChainSnapshots(res.Chains)
		st.Residuals = res.Residuals
		st.Operators = res.Operators
	})
	st := j.Status()
	log.Info("job finished", "state", st.State, "score", st.Score,
		"accepted", st.Accepted, "steps", st.Step)
}

// Recover re-queues every job with a persisted checkpoint under its
// original job ID, advancing the ID counter past them. The service
// calls it once at boot, after the workers are up: a daemon killed
// mid-job comes back with the job queued at its last checkpoint rather
// than silently forgotten. An unusable checkpoint (corrupt, metadata
// that does not match its file, or written by an earlier fit driver —
// counted as stale) is logged and counted but left on disk for
// inspection; it never blocks boot.
func (jm *JobManager) Recover() {
	for _, id := range jm.store.Checkpoints() {
		ck, req, err := jm.loadCheckpoint(id)
		if err != nil {
			outcome := "error"
			if errors.Is(err, synth.ErrCheckpointStale) {
				outcome = "stale"
			}
			jobRestores.With(outcome).Inc()
			jm.log.Error("job checkpoint unusable; leaving file", "job", id, "err", err)
			continue
		}
		if _, err := jm.requeue(id, req, ck); err != nil {
			jobRestores.With("error").Inc()
			jm.log.Error("re-queueing recovered job", "job", id, "err", err)
		}
	}
}

// Resume re-queues a job from its persisted checkpoint on demand. A
// live (queued or running) job with the ID is returned as-is — boot
// recovery re-queues interrupted jobs automatically, so resuming an
// already-recovered job is an idempotent no-op. A terminal job with a
// checkpoint (e.g. one whose recovery attempt failed transiently) is
// re-queued under its original ID.
func (jm *JobManager) Resume(id string) (JobStatus, error) {
	jm.mu.Lock()
	closed := jm.closed
	j := jm.jobs[id]
	jm.mu.Unlock()
	if closed {
		return JobStatus{}, ErrManagerClosed
	}
	if j != nil {
		if st := j.Status(); !st.Terminal() {
			return st, nil
		}
	}
	ck, req, err := jm.loadCheckpoint(id)
	if err != nil {
		return JobStatus{}, err
	}
	return jm.requeue(id, req, ck)
}

// loadCheckpoint fetches and fully validates a job's stored checkpoint,
// returning it with the original (default-resolved) request recovered
// from its metadata envelope.
func (jm *JobManager) loadCheckpoint(id string) (*synth.Checkpoint, JobRequest, error) {
	data, err := jm.store.Checkpoint(id)
	if err != nil {
		return nil, JobRequest{}, err
	}
	ck, err := synth.LoadCheckpoint(bytes.NewReader(data))
	if err != nil {
		// Both wrapped: a checkpoint an earlier driver wrote must stay
		// recognizable as stale (writeErr and Recover test for it first).
		return nil, JobRequest{}, fmt.Errorf("%w: job %s checkpoint: %w", ErrInternal, id, err)
	}
	if len(ck.Meta) == 0 {
		return nil, JobRequest{}, fmt.Errorf("%w: job %s checkpoint has no job metadata", ErrInternal, id)
	}
	var meta checkpointMeta
	if err := json.Unmarshal(ck.Meta, &meta); err != nil {
		return nil, JobRequest{}, fmt.Errorf("%w: job %s checkpoint metadata: %v", ErrInternal, id, err)
	}
	if meta.Job != id {
		return nil, JobRequest{}, fmt.Errorf("%w: checkpoint stored for job %s belongs to job %s", ErrInternal, id, meta.Job)
	}
	return ck, meta.Request, nil
}

// requeue registers and enqueues a recovered job under its original ID.
func (jm *JobManager) requeue(id string, req JobRequest, ck *synth.Checkpoint) (JobStatus, error) {
	j := &Job{
		req:    req,
		resume: ck,
		status: JobStatus{
			ID:              id,
			Measurement:     req.Measurement,
			State:           JobQueued,
			Steps:           req.Steps,
			Step:            ck.Step,
			Seed:            req.Seed,
			CheckpointEvery: req.CheckpointEvery,
			ResumedFrom:     ck.Step,
		},
		done: make(chan struct{}),
	}
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return JobStatus{}, ErrManagerClosed
	}
	if old, ok := jm.jobs[id]; ok {
		// Racing resumes of the same job: the first registration wins and
		// the loser returns it, so one checkpoint never feeds two runs.
		if st := old.Status(); !st.Terminal() {
			jm.mu.Unlock()
			return st, nil
		}
	} else {
		jm.order = append(jm.order, id)
	}
	jm.jobs[id] = j
	// Keep fresh submissions from ever colliding with a recovered ID.
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n > jm.nextID {
		jm.nextID = n
	}
	recordJobState(JobQueued)
	jobsActive.Add(1)
	queued := false
	select {
	case jm.queue <- j:
		queued = true
	default:
	}
	jm.mu.Unlock()
	if !queued {
		j.finish(func(st *JobStatus) {
			st.State = JobFailed
			st.Error = ErrQueueFull.Error()
		})
		return j.Status(), ErrQueueFull
	}
	jm.log.Info("job resumed from checkpoint", "job", id,
		"step", ck.Step, "steps", req.Steps, "measurement", req.Measurement)
	return j.Status(), nil
}
