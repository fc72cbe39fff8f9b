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
)

// jobQueueDepth bounds how many submitted-but-unstarted jobs the
// manager will hold before refusing submissions with ErrQueueFull.
const jobQueueDepth = 256

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
	// CheckpointEvery > 0 makes the job durable: every that many steps it
	// persists a resumable checkpoint through the store, and a daemon
	// restart re-queues it from the last one (synth.Config.CheckpointEvery
	// semantics; see DESIGN.md "Durable jobs"). 0 leaves the job not
	// durable; a negative value is refused.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
}

// fitConfig is the one mapping from a request to the fit it runs,
// against a release of the given eps: Submit validates a request through
// it, and run executes what it returns. synth's Validate fills the fit
// defaults and refuses what a fit cannot run.
func (req JobRequest) fitConfig(eps float64) (synth.Config, error) {
	cfg := synth.Config{
		Eps:             eps,
		Workloads:       req.Workloads, // empty = every measured workload
		Pow:             req.Pow,
		Steps:           req.Steps,
		ProgressEvery:   req.ProgressEvery,
		CheckpointEvery: req.CheckpointEvery,
	}
	err := cfg.Validate()
	return cfg, err
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
	// Residuals breaks the current score into per-workload fit residuals
	// (L1 distance to the released noisy counts, weighted by epsilon)
	// with the worst-fitting bins of each workload — the diagnostic for
	// which workload the sampler is failing to match. Updated at each
	// progress checkpoint and final on termination.
	Residuals []synth.WorkloadResidual `json:"residuals,omitempty"`
	// Operators is the fit's executor profile, one entry per
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
	store *Store
	log   *slog.Logger

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

// NewJobManager starts workers goroutines consuming the job queue. A nil
// logger discards job lifecycle logs.
func NewJobManager(store *Store, workers int, logger *slog.Logger) *JobManager {
	if workers < 1 {
		workers = 1
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	jm := &JobManager{
		store: store,
		log:   logger,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, jobQueueDepth),
		quit:  make(chan struct{}),
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

// Submit validates and enqueues a job. The request it queues, and that a
// durable job's checkpoints record, has every fit default resolved.
func (jm *JobManager) Submit(req JobRequest) (JobStatus, error) {
	if req.Steps <= 0 {
		return JobStatus{}, fmt.Errorf("job Steps must be positive, got %d", req.Steps)
	}
	info, err := jm.store.Info(req.Measurement)
	if err != nil {
		return JobStatus{}, err
	}
	cfg, err := req.fitConfig(info.Eps)
	if err != nil {
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
	req.Pow, req.ProgressEvery = cfg.Pow, cfg.ProgressEvery

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
	j := newJob(fmt.Sprintf("j%d", jm.nextID), req, nil)
	err = jm.enqueue(j)
	jm.mu.Unlock()
	if err != nil {
		return j.Status(), err
	}
	jm.log.Info("job queued", "job", j.status.ID,
		"measurement", req.Measurement, "steps", req.Steps,
		"checkpointEvery", req.CheckpointEvery)
	return j.Status(), nil
}

// newJob builds a queued job for a resolved request; ck is the checkpoint
// a recovered or resumed job continues from, nil for a fresh one.
func newJob(id string, req JobRequest, ck *synth.Checkpoint) *Job {
	j := &Job{
		req:    req,
		resume: ck,
		status: JobStatus{
			ID:              id,
			Measurement:     req.Measurement,
			State:           JobQueued,
			Steps:           req.Steps,
			Seed:            req.Seed,
			CheckpointEvery: req.CheckpointEvery,
		},
		done: make(chan struct{}),
	}
	if ck != nil {
		j.status.Step, j.status.ResumedFrom = ck.Step, ck.Step
	}
	return j
}

// enqueue registers j under its ID, counts it queued and active, and
// offers it to the workers' queue. A full queue fails the job at once
// and returns ErrQueueFull. The caller holds jm.mu, so the enqueue and
// Close's drain of the queue cannot interleave.
func (jm *JobManager) enqueue(j *Job) error {
	id := j.status.ID
	if _, ok := jm.jobs[id]; !ok {
		jm.order = append(jm.order, id)
	}
	jm.jobs[id] = j
	recordJobState(JobQueued)
	jobsActive.Add(1)
	select {
	case jm.queue <- j:
		return nil
	default:
		j.finish(func(st *JobStatus) {
			st.State = JobFailed
			st.Error = ErrQueueFull.Error()
		})
		return ErrQueueFull
	}
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
// The whole pipeline shares one rng seeded from the request, and the
// fit's one chain walks on the worker's goroutine — jobs are the daemon's
// parallelism — so a job is a function of (stored bytes, request), bit-identical across processes, on any daemon, and to an
// in-process fit. A job with a checkpoint attached (boot recovery,
// explicit resume) replays the identical prefix — rng, measurement load,
// seed graph — and then continues from the checkpoint instead of step 0.
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
	m, parentHash, err := jm.store.load(req.Measurement, rng)
	if err != nil {
		fail("load", err)
		return
	}
	cfg, err := req.fitConfig(m.Eps)
	if err != nil {
		fail("config", err)
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

	cfg.OnProgress = func(p synth.Progress) bool {
		j.mu.Lock()
		j.status.Step = p.Step
		j.status.Accepted = p.Accepted
		j.status.AcceptRate = p.AcceptRate()
		j.status.Score = p.Score
		j.status.Residuals = p.Residuals
		j.status.Operators = p.Operators
		j.mu.Unlock()
		select {
		case <-jm.quit:
			return false
		default:
		}
		return !j.cancelled.Load()
	}
	durable := req.CheckpointEvery > 0
	if durable {
		meta, err := json.Marshal(checkpointMeta{Job: id, Request: req})
		if err != nil {
			fail("checkpoint-meta", err)
			return
		}
		cfg.ParentHash = parentHash
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
		st.Residuals = res.Residuals
		st.Operators = res.Operators
	})
	st := j.Status()
	log.Info("job finished", "state", st.State, "score", st.Score,
		"accepted", st.Accepted, "steps", st.Step)
}

// Recover re-queues every job with a persisted checkpoint under its
// original job ID. The service calls it once at boot, after the workers
// are up: a daemon killed mid-job comes back with the job queued at its
// last checkpoint rather than silently forgotten. An unusable checkpoint
// (corrupt, metadata that does not match its file, or written by an
// earlier fit driver — counted as stale) is logged and counted but left
// on disk for inspection; it never blocks boot. Its ID stays taken like
// a usable one's, so no fresh job overwrites or retires the kept file.
func (jm *JobManager) Recover() {
	for _, id := range jm.store.Checkpoints() {
		jm.reserveID(id)
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

// jobNumber parses a job ID of the j<N> form Submit issues.
func jobNumber(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n, err == nil && n > 0 && id == "j"+strconv.Itoa(n)
}

// reserveID keeps fresh submissions from ever being issued id.
func (jm *JobManager) reserveID(id string) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if n, ok := jobNumber(id); ok && n > jm.nextID {
		jm.nextID = n
	}
}

// requeue registers and enqueues a recovered job under its original ID.
func (jm *JobManager) requeue(id string, req JobRequest, ck *synth.Checkpoint) (JobStatus, error) {
	jm.reserveID(id)
	j := newJob(id, req, ck)
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
	}
	err := jm.enqueue(j)
	jm.mu.Unlock()
	if err != nil {
		return j.Status(), err
	}
	jm.log.Info("job resumed from checkpoint", "job", id,
		"step", ck.Step, "steps", req.Steps, "measurement", req.Measurement)
	return j.Status(), nil
}
