// Package workload is the registry that makes wPINQ's declarative pitch
// real for this repository: each analysis (a "workload") is defined
// exactly once — a name and the description of its query, an operator
// tree from wpinq/internal/queries — and every layer above (measurement,
// serialization, MCMC fitting, the curator service, the CLIs) resolves
// workloads by name instead of hard-coding a query trio.
//
// Everything else about a workload is read off that tree: the one-shot
// query over core.Collection that takes the actual differentially
// private measurement of a protected graph (and is the reference the
// executor-equivalence tests compare against), the incremental pipeline
// over the executor's operators (wpinq/internal/engine) that MCMC
// re-scores a synthetic graph with after each edge swap, and the privacy
// use count a measurement costs.
//
// The result histogram is type-erased behind the Histogram interface
// (typed get, distance, canonical serialization), so workloads with
// heterogeneous record types (Unit counts, degree triples, motif degree
// profiles, ...) compose in one measurement set and one fit plan.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wpinq/internal/core"
	"wpinq/internal/engine"
	"wpinq/internal/graph"
	"wpinq/internal/incremental"
	"wpinq/internal/plan"
	"wpinq/internal/queries"
	"wpinq/internal/weighted"
)

// Input is the dataflow entry point a fit plan exposes: the executor's
// edge input behind the plan's metrics. It is a superset of mcmc.Input,
// so a Plan's input plugs straight into mcmc.NewGraphState and the
// sampler scores proposals transactionally — one propagation per
// proposal, rejected or not.
type Input interface {
	Push(batch []incremental.Delta[graph.Edge])
	PushDataset(d *weighted.Dataset[graph.Edge])
	Begin()
	Commit()
	Abort()
	// Pushes reports the executor's propagation counter: one per Push.
	Pushes() uint64
}

// Entry is one record of a released histogram in canonical form: the
// record serialized as JSON plus its noisy count. Entry lists returned
// by Histogram.Entries are sorted bytewise by key, so identical
// histograms serialize to identical bytes (the measurement store
// content-addresses releases by those bytes).
type Entry struct {
	Key   json.RawMessage `json:"k"`
	Count float64         `json:"c"`
}

// Histogram is the type-erased view of one workload's released
// histogram (a core.Histogram[T] for the workload's record type T).
type Histogram interface {
	// Len returns the number of released records.
	Len() int
	// Get returns the noisy count for the record encoded by key (the
	// same JSON form Entries uses). A record outside the release derives
	// its noise from the record, exactly like core.Histogram.Get: asking
	// changes nothing.
	Get(key json.RawMessage) (float64, error)
	// Distance returns the L1 distance between this histogram's
	// released records and other's, over the union of their keys.
	Distance(other Histogram) (float64, error)
	// Entries returns the released (key, count) pairs sorted bytewise by
	// key: the canonical serialization.
	Entries() ([]Entry, error)
}

// Measured couples a workload's released histogram with the parameters
// it was taken under. The bucket travels with the measurement because
// the fit pipeline must bucket identically to the released records or
// MCMC would fit fresh noise (see synth's Figure 3 discussion).
type Measured struct {
	Workload Workload
	Bucket   int
	Hist     Histogram
}

// Entries returns the canonical serialized records of the measurement.
func (m Measured) Entries() ([]Entry, error) { return m.Hist.Entries() }

// Attach builds the workload's fit pipeline on the plan, terminates it
// in a NoisyCountSink against the released histogram, and registers the
// sink with the plan's scorer. eps is the privacy parameter the
// measurement was taken with. The sink's domain is the release in
// canonical (sorted-key) order: the sink accumulates its initial L1 in
// domain order, so a map-ordered domain would make the starting score —
// and with it the whole seeded MCMC trace — vary between runs. Every
// anchor of a fit — fresh, re-anchored or resumed — is this call: a sink
// keeps nothing a loaded edge list does not re-derive.
func (m Measured) Attach(p *Plan, eps float64) error {
	return m.Workload.impl.attach(p, m.Workload.Name, m.Hist, m.Bucket, eps)
}

// Collected is a type-erased collector over one workload's pipeline,
// used by equivalence tests and diagnostics.
type Collected interface {
	// Snapshot returns the current materialized output as canonical
	// key -> weight.
	Snapshot() (map[string]float64, error)
}

// Workload is one registered analysis. The zero value is invalid; build
// workloads with Define and register them with Register/MustRegister.
type Workload struct {
	// Name is the registry key: lowercase letters, digits, and dashes.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Uses is the privacy multiplier: the number of times the plan uses
	// the protected edge dataset, so a measurement costs Uses*eps. Define
	// derives it from the description (queries.Uses); a value set by the
	// caller is overwritten.
	Uses int
	// Bucketed reports whether the degree bucket width parameter
	// changes the query (e.g. TbD's floor(d/bucket) grouping).
	Bucketed bool

	impl impl
}

// impl is the type-erased view of a workload's description, provided by
// Define.
type impl interface {
	measure(edges *core.Collection[graph.Edge], bucket int, eps float64, rng *rand.Rand) (Histogram, error)
	load(entries []Entry, eps float64, rng *rand.Rand) (Histogram, error)
	attach(p *Plan, name string, h Histogram, bucket int, eps float64) error
	collect(p *Plan, bucket int) Collected
	exact(edges *weighted.Dataset[graph.Edge], bucket int) (map[string]float64, error)
}

// normBucket canonicalizes the bucket parameter: workloads that ignore
// it record 0, so measurements serialize identically whatever the
// caller passed.
func (w Workload) normBucket(bucket int) int {
	if !w.Bucketed || bucket <= 1 {
		return 0
	}
	return bucket
}

// Measure takes the workload's differentially private measurement of
// the protected edge collection, charging Uses*eps of the collection's
// budget.
func (w Workload) Measure(edges *core.Collection[graph.Edge], bucket int, eps float64, rng *rand.Rand) (Measured, error) {
	if w.impl == nil {
		return Measured{}, fmt.Errorf("workload: %q has no implementation", w.Name)
	}
	b := w.normBucket(bucket)
	h, err := w.impl.measure(edges, b, eps, rng)
	if err != nil {
		return Measured{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return Measured{Workload: w, Bucket: b, Hist: h}, nil
}

// Load reconstructs a previously released measurement from its
// canonical entries (the deserialization path). Unseen records continue
// to derive their noise at eps.
func (w Workload) Load(entries []Entry, bucket int, eps float64, rng *rand.Rand) (Measured, error) {
	if w.impl == nil {
		return Measured{}, fmt.Errorf("workload: %q has no implementation", w.Name)
	}
	h, err := w.impl.load(entries, eps, rng)
	if err != nil {
		return Measured{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return Measured{Workload: w, Bucket: w.normBucket(bucket), Hist: h}, nil
}

// Collect builds the workload's pipeline on the plan and terminates it
// in a materializing collector, for tests and inspection.
func (w Workload) Collect(p *Plan, bucket int) Collected {
	return w.impl.collect(p, w.normBucket(bucket))
}

// Exact evaluates the workload's one-shot query over g without noise or
// privacy charge (the graph is treated as public) and returns the exact
// output weights, canonically keyed. This is the reference the
// equivalence tests compare the executor against. g's ids are ranked
// onto [0, n) first, as a measurement ranks them.
func (w Workload) Exact(g *graph.Graph, bucket int) (map[string]float64, error) {
	return w.impl.exact(graph.SymmetricEdges(g.Ranked()), w.normBucket(bucket))
}

// Plan is a fit pipeline under construction: the MCMC input root plus
// the scorer the attached sinks feed. Shards semantics match
// synth.Config.Shards: 0 is one shard per CPU, >0 an explicit count, and
// -1 — the retired reference engine's value, which callers and stored
// checkpoints still pass — one shard.
//
// Every plan carries a plan.Memo: pipelines request their fragments
// through it, so attaching several workloads to one fusing plan builds a
// single DAG that shares operator prefixes (NewPlan). A non-fusing plan
// (NewPlanFused with fuse false) builds every workload its private
// pipeline: the oracle the fusion tests and benchmarks difference
// against, which nothing else selects.
type Plan struct {
	eng    *engine.Engine
	root   *engine.Input[graph.Edge] // every pipeline builds over it
	scorer *incremental.Scorer
	memo   *plan.Memo
}

// NewPlan returns an empty fusing plan. Attach every workload before
// pushing data through Input (subscriptions must complete before the
// first push).
func NewPlan(shards int) *Plan { return NewPlanFused(shards, true) }

// NewPlanFused is NewPlan with explicit control over prefix fusion:
// fuse false builds per-workload pipelines, for the differential tests.
func NewPlanFused(shards int, fuse bool) *Plan {
	if shards < 0 {
		shards = 1 // engine.New would read it as "one per CPU"
	}
	eng := engine.New(shards)
	return &Plan{
		eng:    eng,
		root:   engine.NewInput[graph.Edge](eng),
		scorer: incremental.NewScorer(),
		memo:   plan.New(fuse),
	}
}

// Fusion returns the plan's fusion memo: the fused DAG, sharing stats,
// and the per-fragment propagation counter.
func (p *Plan) Fusion() *plan.Memo { return p.memo }

// Input returns the plan's edge-difference entry point: the executor's
// root input behind the plan-root metrics.
func (p *Plan) Input() Input { return obsInput{p.root} }

// Scorer returns the scorer aggregating every attached sink.
func (p *Plan) Scorer() *incremental.Scorer { return p.scorer }

// Engine returns the executor the plan runs on.
func (p *Plan) Engine() *engine.Engine { return p.eng }

// Builders holds the one description of a workload's query for record
// type T: the operator tree (queries.Expr), given the degree bucket
// width. Workloads that do not use the bucket receive 0 and must ignore
// it. Both of the workload's forms are lowerings of this tree: the
// one-shot measurement (queries.OneShot) and the fit pipeline
// (queries.Stream), whose fragments are requested through the plan's
// fusion memo, so several workloads attached to one plan share their
// common operator prefixes. A tree without fragments still works on
// every plan — it just never shares.
type Builders[T comparable] struct {
	Expr func(bucket int) queries.Expr[T]
}

// Define couples a workload's metadata with its description and derives
// its privacy multiplier from the tree. The returned workload is ready to
// Register.
func Define[T comparable](w Workload, b Builders[T]) Workload {
	if b.Expr == nil {
		panic(fmt.Sprintf("workload: Define(%q) requires a description", w.Name))
	}
	w.Uses = queries.Uses(b.Expr(0))
	w.impl = b
	return w
}

func (b Builders[T]) measure(edges *core.Collection[graph.Edge], bucket int, eps float64, rng *rand.Rand) (Histogram, error) {
	h, err := core.NoisyCount(queries.OneShot(b.Expr(bucket), edges), eps, rng)
	if err != nil {
		return nil, err
	}
	return &typedHist[T]{h: h}, nil
}

func (b Builders[T]) load(entries []Entry, eps float64, rng *rand.Rand) (Histogram, error) {
	counts := make(map[T]float64, len(entries))
	for _, e := range entries {
		var x T
		if err := json.Unmarshal(e.Key, &x); err != nil {
			return nil, fmt.Errorf("decoding record %s: %w", e.Key, err)
		}
		counts[x] = e.Count
	}
	h, err := core.HistogramFromMaterialized(counts, eps, rng)
	if err != nil {
		return nil, err
	}
	return &typedHist[T]{h: h}, nil
}

func (b Builders[T]) attach(p *Plan, name string, h Histogram, bucket int, eps float64) error {
	th, ok := h.(*typedHist[T])
	if !ok {
		return fmt.Errorf("workload: histogram has record type %T, want %T", h, &typedHist[T]{})
	}
	release, err := th.canonical()
	if err != nil {
		return err
	}
	sink := incremental.NewNoisyCountSink[T](queries.Stream(b.Expr(bucket), p.memo, p.root), th.h, release.recs, eps)
	p.scorer.AddNamed(name, sink)
	return nil
}

func (b Builders[T]) collect(p *Plan, bucket int) Collected {
	return typedCollected[T]{c: incremental.Collect(queries.Stream(b.Expr(bucket), p.memo, p.root))}
}

func (b Builders[T]) exact(edges *weighted.Dataset[graph.Edge], bucket int) (map[string]float64, error) {
	q := queries.OneShot(b.Expr(bucket), core.FromPublic(edges))
	return canonicalize(q.Snapshot())
}

// typedCollected adapts an incremental Collector to the Collected view.
type typedCollected[T comparable] struct {
	c *incremental.Collector[T]
}

func (tc typedCollected[T]) Snapshot() (map[string]float64, error) {
	return canonicalize(tc.c.Snapshot())
}

// canonicalize converts a typed weighted dataset to canonical
// key -> weight form.
func canonicalize[T comparable](d *weighted.Dataset[T]) (map[string]float64, error) {
	out := make(map[string]float64, d.Len())
	var err error
	d.Range(func(x T, w float64) {
		key, e := json.Marshal(x)
		if e != nil && err == nil {
			err = e
			return
		}
		out[string(key)] = w
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// typedHist implements Histogram over a core.Histogram[T].
type typedHist[T comparable] struct {
	h *core.Histogram[T]
}

func (t *typedHist[T]) Len() int { return t.h.Len() }

func (t *typedHist[T]) Get(key json.RawMessage) (float64, error) {
	var x T
	if err := json.Unmarshal(key, &x); err != nil {
		return 0, fmt.Errorf("workload: decoding record %s: %w", key, err)
	}
	return t.h.Get(x), nil
}

// byKey is a release in canonical order: the typed records beside their
// serialized entries, sorted together bytewise by key.
type byKey[T comparable] struct {
	recs    []T
	entries []Entry
}

func (b byKey[T]) Len() int           { return len(b.entries) }
func (b byKey[T]) Less(i, j int) bool { return bytes.Compare(b.entries[i].Key, b.entries[j].Key) < 0 }
func (b byKey[T]) Swap(i, j int) {
	b.recs[i], b.recs[j] = b.recs[j], b.recs[i]
	b.entries[i], b.entries[j] = b.entries[j], b.entries[i]
}

func (t *typedHist[T]) canonical() (byKey[T], error) {
	mat := t.h.Materialized()
	recs, entries := make([]T, 0, len(mat)), make([]Entry, 0, len(mat))
	for x, c := range mat {
		key, err := json.Marshal(x)
		if err != nil {
			return byKey[T]{}, fmt.Errorf("workload: encoding record %v: %w", x, err)
		}
		recs = append(recs, x)
		entries = append(entries, Entry{Key: key, Count: c})
	}
	sort.Sort(byKey[T]{recs, entries})
	return byKey[T]{recs, entries}, nil
}

func (t *typedHist[T]) Entries() ([]Entry, error) {
	release, err := t.canonical()
	return release.entries, err
}

func (t *typedHist[T]) Distance(other Histogram) (float64, error) {
	a, err := t.Entries()
	if err != nil {
		return 0, err
	}
	b, err := other.Entries()
	if err != nil {
		return 0, err
	}
	var l1 float64
	for i, j := 0, 0; i < len(a) || j < len(b); {
		// A histogram that has run out sorts after everything.
		cmp := -1
		if i == len(a) {
			cmp = 1
		} else if j < len(b) {
			cmp = bytes.Compare(a[i].Key, b[j].Key)
		}
		switch {
		case cmp < 0:
			l1 += math.Abs(a[i].Count)
			i++
		case cmp > 0:
			l1 += math.Abs(b[j].Count)
			j++
		default:
			l1 += math.Abs(a[i].Count - b[j].Count)
			i, j = i+1, j+1
		}
	}
	return l1, nil
}
