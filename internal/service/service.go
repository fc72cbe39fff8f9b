// Package service is the curator layer of the paper's two-party
// workflow (Section 5.1) as a long-lived, concurrent subsystem.
//
// The paper's deployment story is: a curator holds the protected graph,
// takes differentially private wPINQ measurements of it, and can then
// discard the data; any analyst may later fit synthetic datasets to the
// released measurements, with no further privacy cost. This package
// owns each piece of state that story needs on a server:
//
//   - a dataset Registry: uploaded edge lists become budgeted,
//     budget.Source-backed protected graphs. The graph is dropped from
//     memory as soon as it is measured (the "discard the data" step);
//     its budget ledger outlives it, so spent budget stays spent.
//   - a measurement Store: released synth.Measurements persisted via
//     their Save format under content-addressed IDs, listable and
//     fetchable by analysts — the public face of the service.
//   - a budget ledger per dataset enforcing sequential composition
//     across concurrent requests: measurement requests are charged
//     atomically and refused with a structured overdraw error rather
//     than exceeding the registered budget.
//   - a JobManager: a bounded worker pool running SeedGraph+Synthesize
//     asynchronously with cancellation and progress (step count,
//     current score, accept rate) observable by polling.
//
// cmd/wpinqd exposes the service over HTTP (Handler); Client is the
// matching Go client used by `wpinq remote` and the integration tests.
package service

import (
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Options configures a Service. It holds no job setting: a synthesis
// job is configured by its JobRequest alone.
type Options struct {
	// Dir is the store directory (created if absent). Empty makes a
	// private temporary one that Close removes: nothing outlives the process.
	Dir string
	// Workers bounds the synthesis worker pool. 0 sizes it to
	// GOMAXPROCS: a chain's engine runs on one goroutine, so one job per
	// CPU.
	Workers int
	// Seed is the base for deriving per-request noise/MCMC seeds when a
	// request does not supply one. Defaults to 1.
	Seed int64
	// Logger receives structured service logs (job lifecycle, HTTP
	// requests). Nil discards them, which keeps library users and tests
	// quiet by default; cmd/wpinqd always supplies one.
	Logger *slog.Logger
}

// Service owns the curator-side state: datasets and their budget
// ledgers, the measurement store, and the synthesis job manager.
// All methods are safe for concurrent use.
type Service struct {
	opts     Options
	store    *Store
	registry *Registry
	jobs     *JobManager
	seedCtr  atomic.Int64
	started  time.Time
	private  string // the temporary store directory made for an empty Options.Dir
}

// New builds a Service, loading any measurements already persisted
// under opts.Dir (a private temporary directory when it is empty).
func New(opts Options) (*Service, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	private := ""
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "wpinqd-")
		if err != nil {
			return nil, fmt.Errorf("service: creating private store dir: %w", err)
		}
		private, opts.Dir = dir, dir
	}
	st, err := NewStore(opts.Dir, opts.Logger)
	if err != nil {
		os.RemoveAll(private)
		return nil, err
	}
	s := &Service{
		opts:     opts,
		store:    st,
		registry: NewRegistry(),
		started:  time.Now(),
		private:  private,
	}
	// Dataset IDs restart at d1 on every boot (the registry is
	// in-memory), but the persisted provenance ledger may already hold
	// chains for IDs a previous process handed out. Start numbering past
	// them so a re-uploaded dataset can never graft onto another
	// dataset's chain.
	for _, id := range st.ProvenanceDatasets() {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "d")); err == nil && n > s.registry.nextID {
			s.registry.nextID = n
		}
	}
	s.jobs = NewJobManager(st, workerCount(opts), opts.Logger)
	// Boot-time crash recovery: any job with a persisted checkpoint was
	// interrupted (cleanly finished jobs retire theirs); re-queue each
	// under its original ID so a killed daemon's work resumes instead of
	// vanishing.
	s.jobs.Recover()
	return s, nil
}

// workerCount sizes the job pool: a chain's engine runs on one
// goroutine, so the pool admits GOMAXPROCS jobs at once unless Options.Workers says
// otherwise.
func workerCount(opts Options) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// HealthInfo is the health endpoint's response: liveness plus the
// build and load facts an operator checks first.
type HealthInfo struct {
	Status        string  `json:"status"`
	Version       string  `json:"version,omitempty"`
	GoVersion     string  `json:"goVersion,omitempty"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	ActiveJobs    int     `json:"activeJobs"`
	Datasets      int     `json:"datasets"`
	Measurements  int     `json:"measurements"`
}

// Health reports the service's liveness view.
func (s *Service) Health() HealthInfo {
	h := HealthInfo{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		ActiveJobs:    s.jobs.Active(),
		Datasets:      len(s.registry.List()),
		Measurements:  len(s.store.List()),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.Version = bi.Main.Version
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
				h.Version = kv.Value[:12]
			}
		}
	}
	return h
}

// Logger returns the service's structured logger.
func (s *Service) Logger() *slog.Logger { return s.opts.Logger }

// Store returns the measurement store.
func (s *Service) Store() *Store { return s.store }

// Registry returns the dataset registry.
func (s *Service) Registry() *Registry { return s.registry }

// Jobs returns the synthesis job manager.
func (s *Service) Jobs() *JobManager { return s.jobs }

// Provenance returns dataset id's hash-chained release ledger together
// with the live budget snapshot audits replay against.
func (s *Service) Provenance(id string) (ProvenanceInfo, error) {
	info, err := s.registry.Info(id)
	if err != nil {
		return ProvenanceInfo{}, err
	}
	return ProvenanceInfo{
		Dataset: id,
		Ledger:  info.Ledger,
		Records: s.store.Provenance(id),
	}, nil
}

// Audit replays dataset id's provenance chain server-side: chain
// integrity, stored-content hashes, recomputed costs, and the budget
// ledger replay. The `wpinq remote audit` verb performs the same replay
// client-side so analysts need not trust this method's answer.
func (s *Service) Audit(id string) (AuditReport, error) {
	info, err := s.registry.Info(id)
	if err != nil {
		return AuditReport{}, err
	}
	return AuditRecords(id, s.store.Provenance(id), info.Ledger, s.store.Bytes), nil
}

// Close stops the job workers, cancelling any running jobs, waits for
// them to exit, and removes a private store directory.
func (s *Service) Close() {
	s.jobs.Close()
	os.RemoveAll(s.private) // a no-op for a caller's Dir: private is ""
}

// SubmitJob fills the request defaults the service owns (the derived
// seed) and enqueues a synthesis job. ResumeJob is the only way to
// resume one.
func (s *Service) SubmitJob(req JobRequest) (JobStatus, error) {
	if req.Seed == 0 {
		req.Seed = s.nextSeed()
	}
	return s.jobs.Submit(req)
}

// ResumeJob re-queues a job from its persisted checkpoint (idempotent
// for jobs that are already live; see JobManager.Resume).
func (s *Service) ResumeJob(id string) (JobStatus, error) {
	return s.jobs.Resume(id)
}

// nextSeed derives a deterministic per-request seed for requests that
// do not supply one: distinct requests get distinct, reproducible
// noise streams under a fixed Options.Seed.
func (s *Service) nextSeed() int64 {
	return s.opts.Seed + s.seedCtr.Add(1)*2654435761
}
