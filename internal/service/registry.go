package service

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"wpinq/internal/budget"
	"wpinq/internal/graph"
	"wpinq/internal/queries"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

// Registry holds protected datasets and their budget ledgers. The
// protected graph itself is transient — by default it is discarded the
// moment it has been measured — but the ledger entry is permanent, so
// budget spent on a dataset stays spent for the lifetime of the
// service (budget monotonicity across sessions of the same ledger).
type Registry struct {
	mu     sync.Mutex
	byID   map[string]*dataset
	order  []string
	nextID int
}

// dataset is one registry entry. mu serializes measurement requests on
// this dataset (the budget pre-check, the charge, the measurement, and
// the discard are one atomic step); concurrent requests on different
// datasets proceed in parallel.
type dataset struct {
	id   string
	name string
	src  *budget.Source

	mu           sync.Mutex
	g            *graph.Graph // nil once discarded
	nodes, edges int
	measurements []string
}

// DatasetInfo is the curator-facing view of one registry entry: the
// ledger plus public bookkeeping. (Node/edge counts are visible to the
// curator who uploaded the data; analysts interact only with the
// measurement store.)
type DatasetInfo struct {
	ID           string          `json:"id"`
	Name         string          `json:"name"`
	Nodes        int             `json:"nodes"`
	Edges        int             `json:"edges"`
	Ledger       budget.Snapshot `json:"ledger"`
	Discarded    bool            `json:"discarded"`
	Measurements []string        `json:"measurements,omitempty"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*dataset)}
}

// Upload registers an edge list as a protected graph with the given
// total privacy budget (in epsilon). The budget is fixed at upload
// time: every measurement debits it, and it can never be raised.
func (r *Registry) Upload(name string, totalBudget float64, edges io.Reader) (DatasetInfo, error) {
	if !(totalBudget > 0) || math.IsInf(totalBudget, 1) { // NaN compares false; no charge ever exceeds either
		return DatasetInfo{}, fmt.Errorf("dataset budget must be positive and finite, got %g", totalBudget)
	}
	g, err := graph.ReadEdgeList(edges)
	if err != nil {
		return DatasetInfo{}, err
	}
	if g.NumEdges() == 0 {
		return DatasetInfo{}, fmt.Errorf("uploaded edge list contains no edges")
	}
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("d%d", r.nextID)
	if name == "" {
		name = id
	}
	d := &dataset{
		id:    id,
		name:  name,
		src:   budget.NewSource(name, totalBudget),
		g:     g,
		nodes: g.NumNodes(),
		edges: g.NumEdges(),
	}
	r.byID[id] = d
	r.order = append(r.order, id)
	r.mu.Unlock()
	recordLedger(id, d.src.Snapshot())
	return d.info(), nil
}

func (r *Registry) get(id string) (*dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: dataset %s", ErrNotFound, id)
	}
	return d, nil
}

// Info returns one dataset's ledger view.
func (r *Registry) Info(id string) (DatasetInfo, error) {
	d, err := r.get(id)
	if err != nil {
		return DatasetInfo{}, err
	}
	return d.info(), nil
}

// List returns every dataset's ledger view in upload order.
func (r *Registry) List() []DatasetInfo {
	r.mu.Lock()
	ds := make([]*dataset, 0, len(r.order))
	for _, id := range r.order {
		ds = append(ds, r.byID[id])
	}
	r.mu.Unlock()
	out := make([]DatasetInfo, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.info())
	}
	return out
}

func (d *dataset) info() DatasetInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DatasetInfo{
		ID:           d.id,
		Name:         d.name,
		Nodes:        d.nodes,
		Edges:        d.edges,
		Ledger:       d.src.Snapshot(),
		Discarded:    d.g == nil,
		Measurements: append([]string(nil), d.measurements...),
	}
}

// MeasureRequest parameterizes one measurement of a protected dataset.
type MeasureRequest struct {
	// Eps is the per-measurement privacy parameter (required, > 0).
	Eps float64 `json:"eps"`
	// Workloads names the fit workloads to measure, resolved against
	// the workload registry (at least one; each costs its use count
	// times eps on top of the 3-eps seed bundle). `wpinq workloads`
	// lists the registry.
	Workloads []string `json:"workloads,omitempty"`
	// Bucket is the degree bucket width for bucketed workloads
	// (synth.Config.Bucket).
	Bucket int `json:"bucket,omitempty"`
	// Keep retains the protected graph after this measurement. The
	// default (false) implements the paper's workflow: measure once,
	// then discard the data. Keep=true supports spending one ledger
	// across several measurement rounds.
	Keep bool `json:"keep,omitempty"`
	// Seed, when non-zero, seeds the noise rng. Noise is assigned in
	// sorted record order, so a seed pins the released bytes exactly:
	// identically-seeded measurements of the same graph and workloads
	// store under the same content-addressed ID.
	Seed int64 `json:"seed,omitempty"`
}

// Config converts the request to the synthesis workflow configuration.
func (mr MeasureRequest) Config() synth.Config {
	return synth.Config{
		Eps:       mr.Eps,
		Workloads: mr.Workloads,
		Bucket:    mr.Bucket,
	}
}

// MeasureResult reports a successful measurement.
type MeasureResult struct {
	Measurement MeasurementInfo `json:"measurement"`
	Cost        float64         `json:"cost"`
	Ledger      budget.Snapshot `json:"ledger"`
	Discarded   bool            `json:"discarded"`
	Seed        int64           `json:"seed"`
}

// Measure takes the requested DP measurements of dataset id, stores the
// release, and unless req.Keep is set discards the protected graph.
//
// The ledger enforces sequential composition under concurrency: the
// budget pre-check, the debit, and the measurement happen under the
// dataset's lock, so of any set of concurrent requests exactly the
// affordable prefix succeeds and the rest receive a structured
// *budget.InsufficientBudgetError — the budget is never overdrawn and
// never double-spent. The overdraw check deliberately precedes the
// discard check: once the budget is exhausted, "out of budget" is the
// durable answer, whether or not the graph is still resident.
func (s *Service) Measure(id string, req MeasureRequest) (MeasureResult, error) {
	cfg := req.Config()
	if err := cfg.Validate(); err != nil {
		return MeasureResult{}, err
	}
	// Reject an empty workload list here, before any charge: the deeper
	// check in synth.Measure only fires after the ledger was debited,
	// and measurement failures deliberately do not refund.
	if len(cfg.Workloads) == 0 {
		return MeasureResult{}, fmt.Errorf("measure request names no fit workloads (registered: %s)",
			strings.Join(workload.Names(), ", "))
	}
	d, err := s.registry.get(id)
	if err != nil {
		return MeasureResult{}, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.nextSeed()
	}
	cost := cfg.MeasureCost()

	return s.measureLocked(d, req, cfg, cost, seed)
}

// measureLocked is Measure's critical section: pre-check, charge,
// measure, persist, ledger, discard, all under the dataset's lock. The
// unlock is deferred so that a panic below it (a workload's query
// failing on some graph; net/http recovers the handler) leaves the
// dataset usable. What such a panic does not undo is the charge: the
// debit stands, as for any measurement that fails after it, and every
// such failure leaves a measure-failed record in the provenance chain, so
// an audit finds the charge inside the chain and not beside it.
func (s *Service) measureLocked(d *dataset, req MeasureRequest, cfg synth.Config, cost float64, seed int64) (MeasureResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := d.src.Snapshot()
	if cost > snap.Remaining+1e-12 {
		return MeasureResult{}, &budget.InsufficientBudgetError{
			Source:    snap.Name,
			Requested: cost,
			Remaining: snap.Remaining,
		}
	}
	if d.g == nil {
		return MeasureResult{}, fmt.Errorf("%w: dataset %s", ErrDiscarded, d.id)
	}
	// Like the empty workload list: synth.Measure's own check would fire
	// after the debit.
	if err := queries.CheckNodeRange(d.g.NumNodes()); err != nil {
		return MeasureResult{}, err
	}
	if err := d.src.Charge(cost); err != nil {
		return MeasureResult{}, err
	}
	ledger := d.src.Snapshot()
	workloads := append([]string(nil), cfg.Workloads...)
	sort.Strings(workloads)
	// From here on the in-memory ledger has moved: publish it whatever
	// happens next, so the exported gauges never drift from it — and if
	// what happens next is not a chained release, chain the charge alone.
	// The debit stands: failing open would risk re-running against a
	// budget the failed attempt may already have touched.
	failure := "panic" // how this function is being left, until a step below knows better
	defer func() {
		recordLedger(d.id, ledger)
		if failure == "" {
			return
		}
		if _, perr := s.store.AppendProvenance(ProvenanceRecord{
			Dataset: d.id, Op: ProvenanceOpMeasureFailed, Workloads: workloads,
			Eps: cfg.Eps, Cost: cost, SpentAfter: ledger.Spent, Failure: failure,
		}); perr != nil {
			s.opts.Logger.Error("a charge with no release could not be chained", "dataset", d.id, "cost", cost, "failure", failure, "err", perr)
		}
	}()
	m, err := synth.Measure(d.g, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		failure = "measure"
		return MeasureResult{}, err
	}
	// Persist before discarding: a store failure (e.g. full disk) must
	// not destroy the only copy of a release the budget already paid for.
	info, saved, err := s.store.put(m)
	if err != nil {
		failure = "store"
		return MeasureResult{}, err
	}
	// Chain the release into the dataset's provenance ledger while still
	// holding the dataset lock: the parent list and SpentAfter checkpoint
	// must reflect exactly the state this charge committed against.
	if _, err := s.store.AppendProvenance(ProvenanceRecord{
		Dataset:       d.id,
		Op:            ProvenanceOpMeasure,
		Measurement:   info.ID,
		Workloads:     workloads,
		Eps:           cfg.Eps,
		Cost:          cost,
		SpentAfter:    ledger.Spent,
		FormatVersion: formatVersion(saved.data),
		Parents:       append([]string(nil), d.measurements...),
		ContentHash:   saved.hash,
	}); err != nil {
		// The release is stored and the charge stands, but an unledgered
		// release would fail every future audit — surface that now.
		failure = "provenance"
		return MeasureResult{}, fmt.Errorf("measurement %s stored but provenance append failed: %w", info.ID, err)
	}
	failure = ""
	if !req.Keep {
		d.g = nil // the paper's "discard the data" step
	}
	d.measurements = append(d.measurements, info.ID)
	return MeasureResult{
		Measurement: info,
		Cost:        cost,
		Ledger:      ledger,
		Discarded:   d.g == nil,
		Seed:        seed,
	}, nil
}
