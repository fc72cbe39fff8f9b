package incremental

import "math"

// Observations supplies the noisy measurement m(x) of any record a query
// can produce. core.Histogram implements it: a record outside the release
// observes Laplace noise derived from the record itself — exactly wPINQ's
// NoisyCount semantics, so MCMC faithfully "fits the noise" in
// never-observed buckets (the Figure 3 failure mode discussed in Section
// 5.2). Get must be a function: a sink asks again for what it forgot.
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
// it maintains the current query output weights q(x) and, incrementally as
// differences arrive, the distance MCMC scores candidate datasets by
// (paper Section 4.2)
//
//	L1 = sum_{x released} |q(x) - m(x)|
//	   + sum_{x not released, q(x) != 0} (|q(x) - m(x)| - |m(x)|)
//
// — the paper's ||Q(A) - m||_1 over the whole domain, minus the part of it
// no dataset can change (a weightless record outside the release costs
// |m(x)| there whatever A is, and 0 here), so L1 is a function of the
// current q alone. A never-released record enters the sink when a
// difference first gives it weight (its term is 0 at that moment: entering
// adds nothing) and leaves when its weight is back at zero.
type NoisyCountSink[T comparable] struct {
	// state holds the records the sum ranges over, each with its weight,
	// observation and place in order; nothing iterates it.
	state table[T, sinkEntry]
	// order lists those records: the released domain as handed over, then
	// the never-released ones in the order they entered (a departure moves
	// the last into the gap). RecomputeL1 accumulates in this order, a
	// function of the sink's pushes and not of the table's layout: a
	// periodic recompute must not perturb an otherwise reproducible MCMC
	// trace.
	order    []T
	released int // len of order's fixed prefix
	src      Observations[T]
	l1       float64
	eps      float64

	// Transaction state: savedL1 and savedOrder snapshot the accumulator
	// and the list's length at Begin; undo holds the pre-image weight of
	// every record first touched since, which an entry's stamp equal to
	// txn marks. Inside a transaction the list only grows — a record back
	// at zero stays until Commit — so Abort restores q from undo, drops
	// the records past savedOrder, puts savedL1 back, and the sink is bit
	// for bit what it was at Begin.
	logging    bool
	txn        uint64 // the current transaction's stamp, counted from 1
	savedL1    float64
	savedOrder int
	undo       []Delta[T]
}

// sinkEntry is one held record: its weight q(x), its observation m(x),
// its index in order plus one (so no held entry is zero), and the stamp
// of the last transaction that logged it.
type sinkEntry struct {
	q   float64
	obs float64
	pos int
	txn uint64
}

// onTxn applies a transaction event to the sink's maintained state.
func (s *NoisyCountSink[T]) onTxn(op TxnOp) {
	s.logging = op == TxnBegin
	switch op {
	case TxnBegin:
		s.txn++
		s.savedL1 = s.l1
		s.savedOrder = len(s.order)
		return
	case TxnAbort:
		for _, u := range s.undo {
			i, _ := s.state.find(u.Record)
			if e := s.state.at(i); e.pos > s.savedOrder {
				s.state.removeAt(i) // entered since Begin
			} else {
				e.q = u.Weight
			}
		}
		s.order = s.order[:s.savedOrder]
		s.l1 = s.savedL1
	case TxnCommit:
		for _, u := range s.undo {
			if s.state.get(u.Record).q == 0 {
				s.forget(u.Record)
			}
		}
	}
	s.undo = s.undo[:0]
}

// NewNoisyCountSink attaches a sink to src. domain lists the released
// records (each contributes |0 - m(x)| immediately); eps is the privacy
// parameter the measurement was taken with, used by scorers to weight this
// sink's distance.
func NewNoisyCountSink[T comparable](source Source[T], obs Observations[T], domain []T, eps float64) *NoisyCountSink[T] {
	s := &NoisyCountSink[T]{src: obs, eps: eps}
	s.state.reserve(len(domain))
	for _, x := range domain {
		i, fresh := s.state.claim(x)
		if !fresh {
			continue
		}
		mv := obs.Get(x)
		*s.state.at(i) = sinkEntry{obs: mv, pos: len(s.order) + 1}
		s.order = append(s.order, x)
		s.l1 += math.Abs(mv)
	}
	s.released = len(s.order)
	source.Subscribe(s.onInput)
	source.SubscribeTxn(s.onTxn)
	return s
}

// onInput applies a batch one run of equal consecutive records at a time:
// the entry — observation, current weight, transaction stamp — is looked
// up once per run and the weight is written back once, while the float
// operations are the per-difference ones in the per-difference order — so
// how a stream is cut into batches or runs cannot show in l1. Unit sinks
// (wedges, tbi) receive nothing but one record: hundreds of differences
// per proposal, a million per load.
func (s *NoisyCountSink[T]) onInput(batch []Delta[T]) {
	for i := 0; i < len(batch); {
		x := batch[i].Record
		j, fresh := s.state.claim(x)
		e := s.state.at(j)
		if fresh {
			*e = sinkEntry{obs: s.src.Get(x), pos: len(s.order) + 1}
			s.order = append(s.order, x)
		}
		q := e.q
		if s.logging && e.txn != s.txn {
			e.txn = s.txn
			s.undo = append(s.undo, Delta[T]{x, q})
		}
		l1, mv := s.l1, e.obs
		for ; i < len(batch) && batch[i].Record == x; i++ {
			newQ := q + batch[i].Weight
			if math.Abs(newQ) < 1e-12 {
				newQ = 0
			}
			l1 += math.Abs(newQ-mv) - math.Abs(q-mv)
			q = newQ
		}
		s.l1 = l1
		e.q = q
		if q == 0 && !s.logging {
			s.forget(x)
		}
	}
}

// forget drops x, whose weight is zero, unless it is a released record:
// its term is zero and its observation can be derived again.
//
//wpinq:txn-exempt runs outside a transaction or at its commit, never between Begin and Abort: a record at zero inside a transaction stays listed so that Abort only has to truncate
func (s *NoisyCountSink[T]) forget(x T) {
	i, _ := s.state.find(x)
	pos := s.state.at(i).pos - 1
	if pos < s.released {
		return
	}
	last := len(s.order) - 1
	if pos != last {
		y := s.order[last]
		s.order[pos] = y
		j, _ := s.state.find(y)
		s.state.at(j).pos = pos + 1
	}
	s.order = s.order[:last]
	s.state.removeAt(i)
}

// L1 returns the incrementally maintained distance.
func (s *NoisyCountSink[T]) L1() float64 { return s.l1 }

// Epsilon returns the privacy parameter of the underlying measurement.
func (s *NoisyCountSink[T]) Epsilon() float64 { return s.eps }

// Weight returns the current query output weight q(x), for tests.
func (s *NoisyCountSink[T]) Weight(x T) float64 { return s.state.get(x).q }

// RecomputeL1 re-derives the distance from scratch and returns it; it also
// replaces the maintained value, squashing any accumulated floating-point
// drift. Long MCMC runs call this periodically.
//
//wpinq:txn-exempt callers invoke this between transactions; the recomputed l1 is the ground truth both commit and abort converge to, so no pre-image is needed
func (s *NoisyCountSink[T]) RecomputeL1() float64 {
	s.l1 = s.recompute()
	return s.l1
}

// Drift returns |maintained - recomputed| without modifying state, for
// numerical-stability tests.
func (s *NoisyCountSink[T]) Drift() float64 {
	return math.Abs(s.recompute() - s.l1)
}

// term returns the i-th held record's weight, observation and term of L1.
func (s *NoisyCountSink[T]) term(i int) (q, m, t float64) {
	e := s.state.get(s.order[i])
	q, m = e.q, e.obs
	t = math.Abs(q - m)
	if i >= s.released {
		t -= math.Abs(m)
	}
	return q, m, t
}

func (s *NoisyCountSink[T]) recompute() float64 {
	var l1 float64
	for i := range s.order {
		_, _, t := s.term(i)
		l1 += t
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
