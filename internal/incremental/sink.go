package incremental

import (
	"encoding/json"
	"fmt"
	"math"
)

// Observations supplies released noisy measurements m(x) for the records a
// query produces. core.Histogram implements it: unseen records receive
// fresh, memoized Laplace noise — exactly wPINQ's NoisyCount semantics, so
// MCMC faithfully "fits the noise" in never-observed buckets (the Figure 3
// failure mode discussed in Section 5.2).
type Observations[T comparable] interface {
	Get(x T) float64
}

// MapObservations adapts a fixed map of released measurements; records
// outside the map observe 0. Useful for tests and for measurements known to
// cover the whole effective domain.
type MapObservations[T comparable] map[T]float64

// Get returns the recorded observation, or 0 when absent.
func (m MapObservations[T]) Get(x T) float64 { return m[x] }

// NoisyCountSink terminates a dataflow graph at a NoisyCount measurement:
// it maintains the current query output weights q(x) and the L1 distance
//
//	||Q(A) - m||_1 = sum_x |q(x) - m(x)|
//
// incrementally as differences arrive. The sum ranges over every record
// that has a released observation or a non-zero current weight; when the
// synthetic dataset produces a record never observed before, the sink asks
// the Observations for (and thereafter holds) its released value.
//
// The L1 distance is the quantity MCMC scores candidate datasets by
// (paper Section 4.2).
type NoisyCountSink[T comparable] struct {
	q map[T]float64
	m map[T]float64 // cached observations
	// order lists the observed records in first-observation order, so
	// RecomputeL1's floating-point accumulation is a deterministic
	// function of the sink's history rather than of map iteration order —
	// a periodic recompute must not perturb an otherwise reproducible
	// MCMC trace.
	order []T
	src   Observations[T]
	l1    float64
	eps   float64

	// Transaction state: savedL1 and savedOrder snapshot the scalar
	// accumulator and the observation count at Begin; undo holds the
	// pre-image q weight of every record first touched since. Abort
	// restores q and l1 but deliberately keeps observations drawn for
	// records first materialized during the transaction (m, order, and
	// their |m(x)| terms in l1): wPINQ's memoized noise is monotone — a
	// measurement consulted once is released.
	gate       TxnGate
	savedL1    float64
	savedOrder int
	txnSeen    map[T]struct{}
	undo       []sinkUndo[T]
}

// sinkUndo is one record's pre-transaction query weight.
type sinkUndo[T comparable] struct {
	x    T
	oldQ float64
	had  bool
}

// onTxn applies a transaction event to the sink's maintained state.
// Sinks are leaves: there is nothing to forward.
func (s *NoisyCountSink[T]) onTxn(op TxnOp) {
	if !s.gate.Enter(op) {
		return
	}
	switch op {
	case TxnBegin:
		if s.txnSeen == nil {
			s.txnSeen = make(map[T]struct{})
		}
		s.savedL1 = s.l1
		s.savedOrder = len(s.order)
	case TxnAbort:
		for _, u := range s.undo {
			if u.had {
				s.q[u.x] = u.oldQ
			} else {
				delete(s.q, u.x)
			}
		}
		// Newly drawn observations stay; their records' q is back to 0,
		// so each contributes |0 - m(x)| = |m(x)|, accumulated in
		// observation order.
		l1 := s.savedL1
		for _, x := range s.order[s.savedOrder:] {
			l1 += math.Abs(s.m[x])
		}
		s.l1 = l1
		clear(s.txnSeen)
		s.undo = s.undo[:0]
	case TxnCommit:
		clear(s.txnSeen)
		s.undo = s.undo[:0]
	}
}

// NewNoisyCountSink attaches a sink to src. domain lists the records whose
// observations were materialized at release time (they contribute
// |0 - m(x)| immediately); eps is the privacy parameter the measurement was
// taken with, used by scorers to weight this sink's distance.
func NewNoisyCountSink[T comparable](source Source[T], obs Observations[T], domain []T, eps float64) *NoisyCountSink[T] {
	s := &NoisyCountSink[T]{
		q:   make(map[T]float64),
		m:   make(map[T]float64),
		src: obs,
		eps: eps,
	}
	for _, x := range domain {
		if _, ok := s.m[x]; ok {
			continue
		}
		mv := obs.Get(x)
		s.m[x] = mv
		s.order = append(s.order, x)
		s.l1 += math.Abs(mv)
	}
	source.Subscribe(s.onInput)
	forwardTxn(source, s.onTxn)
	return s
}

// onInput applies a batch one run of equal consecutive records at a time:
// the observation, the current weight and the transaction's first-touch
// bookkeeping are looked up once per run and the weight is written back
// once, while the float operations are the per-difference ones in the
// per-difference order — so how a stream is cut into batches or runs
// cannot show in l1. Unit sinks (wedges, tbi) receive nothing but one
// record: hundreds of differences per proposal, a million per load.
func (s *NoisyCountSink[T]) onInput(batch []Delta[T]) {
	for i := 0; i < len(batch); {
		x := batch[i].Record
		mv, ok := s.m[x]
		if !ok {
			mv = s.src.Get(x)
			s.m[x] = mv
			s.order = append(s.order, x)
			s.l1 += math.Abs(mv) // q was 0 until now
		}
		q, had := s.q[x]
		if s.gate.Active() {
			if _, seen := s.txnSeen[x]; !seen {
				s.txnSeen[x] = struct{}{}
				s.undo = append(s.undo, sinkUndo[T]{x: x, oldQ: q, had: had})
			}
		}
		l1 := s.l1
		for ; i < len(batch) && batch[i].Record == x; i++ {
			newQ := q + batch[i].Weight
			if math.Abs(newQ) < 1e-12 {
				newQ = 0
			}
			l1 += math.Abs(newQ-mv) - math.Abs(q-mv)
			q = newQ
		}
		s.l1 = l1
		if q == 0 {
			delete(s.q, x)
		} else {
			s.q[x] = q
		}
	}
}

// L1 returns the incrementally maintained ||Q(A) - m||_1.
func (s *NoisyCountSink[T]) L1() float64 { return s.l1 }

// Epsilon returns the privacy parameter of the underlying measurement.
func (s *NoisyCountSink[T]) Epsilon() float64 { return s.eps }

// Weight returns the current query output weight q(x), for tests.
func (s *NoisyCountSink[T]) Weight(x T) float64 { return s.q[x] }

// ObservedKeys returns the sink's observation history — every record
// with a cached released value, serialized as canonical JSON, in
// first-observation order. Rebuilding a sink with exactly this list as
// its domain (NewNoisyCountSink Gets memoized, record-keyed noise, so
// the values reproduce) restores m, order, and the |m(x)| terms of l1
// bit-for-bit: the serializable half of the sink's state, used by
// checkpoint/resume.
func (s *NoisyCountSink[T]) ObservedKeys() ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(s.order))
	for i, x := range s.order {
		b, err := json.Marshal(x)
		if err != nil {
			return nil, fmt.Errorf("incremental: encoding observed record %v: %w", x, err)
		}
		out[i] = b
	}
	return out, nil
}

// RecomputeL1 re-derives the distance from scratch and returns it; it also
// replaces the maintained value, squashing any accumulated floating-point
// drift. Long MCMC runs call this periodically.
//
//wpinq:txn-exempt callers invoke this between transactions; the recomputed l1 is the ground truth both commit and abort converge to, so no pre-image is needed
func (s *NoisyCountSink[T]) RecomputeL1() float64 {
	// Records with weight but no cached observation cannot exist: onInput
	// always caches the observation first, so s.order covers the sum.
	s.l1 = s.recompute()
	return s.l1
}

// Drift returns |maintained - recomputed| without modifying state, for
// numerical-stability tests.
func (s *NoisyCountSink[T]) Drift() float64 {
	return math.Abs(s.recompute() - s.l1)
}

func (s *NoisyCountSink[T]) recompute() float64 {
	var l1 float64
	for _, x := range s.order {
		l1 += math.Abs(s.q[x] - s.m[x])
	}
	return l1
}

// Scorer aggregates several sinks into the single fit score used by
// Metropolis-Hastings: sum_i eps_i * ||Q_i(A) - m_i||_1. Sinks of different
// record types are adapted through the SinkScore interface.
type Scorer struct {
	sinks []namedSink
}

// namedSink pairs a sink with the workload name it was attached under,
// so residual diagnostics can attribute score contributions.
type namedSink struct {
	name string
	s    SinkScore
}

// SinkScore is the type-erased view of a sink a Scorer needs.
type SinkScore interface {
	// L1 returns the sink's current distance to its measurement.
	L1() float64
	// Epsilon returns the measurement's privacy parameter.
	Epsilon() float64
	// RecomputeL1 re-derives the distance, squashing float drift.
	RecomputeL1() float64
}

// NewScorer builds a scorer over the given sinks.
func NewScorer(sinks ...SinkScore) *Scorer {
	sc := &Scorer{}
	for _, s := range sinks {
		sc.Add(s)
	}
	return sc
}

// Add registers another sink without a workload attribution.
func (sc *Scorer) Add(s SinkScore) { sc.AddNamed("", s) }

// AddNamed registers a sink attributed to the named workload, so
// Residuals can report its score contribution by name.
func (sc *Scorer) AddNamed(name string, s SinkScore) {
	sc.sinks = append(sc.sinks, namedSink{name: name, s: s})
}

// Each visits every registered sink in attach order, with its workload
// attribution. Checkpointing walks the sinks this way to serialize
// their observation histories.
func (sc *Scorer) Each(f func(name string, s SinkScore)) {
	for _, e := range sc.sinks {
		f(e.name, e.s)
	}
}

// Score returns sum_i eps_i * L1_i: lower is a better fit. (The MCMC
// acceptance test uses score differences, so the posterior is
// exp(-pow * Score).)
func (sc *Scorer) Score() float64 {
	var total float64
	for _, e := range sc.sinks {
		total += e.s.Epsilon() * e.s.L1()
	}
	return total
}

// Recompute re-derives every sink's distance from scratch and returns the
// refreshed score.
func (sc *Scorer) Recompute() float64 {
	var total float64
	for _, e := range sc.sinks {
		total += e.s.Epsilon() * e.s.RecomputeL1()
	}
	return total
}
