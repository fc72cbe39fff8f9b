package incremental

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Residual diagnostics: operator-level provenance of the MCMC fit
// score. The score sum_i eps_i * ||Q_i(A) - m_i||_1 says only "how far"
// a synthetic graph is from the released measurements; the residual
// breakdown says *where* — which workload contributes how much, and
// which measurement bins inside it fit worst. This is the hook an
// adaptive-measurement loop needs: the next epsilon is best spent where
// the residuals concentrate.

// BinResidual is one measurement record's term of a sink's L1 distance
// (the terms of a sink's bins sum to its L1): the record's noisy count,
// the synthetic graph's current query weight, and |Current - Released| —
// less |Released| for a record outside the release, whose term counts
// only what the graph's weight on it costs (see NoisyCountSink). Key is
// the record's canonical JSON form (the same key the measurement
// serialization uses).
type BinResidual struct {
	Key      string  `json:"key"`
	Released float64 `json:"released"`
	Current  float64 `json:"current"`
	Residual float64 `json:"residual"`
}

// WorkloadResidual is one attached workload's share of the fit score.
type WorkloadResidual struct {
	// Workload is the registry name the sink was attached under ("" for
	// sinks added without a name).
	Workload string `json:"workload"`
	// Epsilon is the measurement's privacy parameter; Weighted =
	// Epsilon * L1 is this workload's term of the score.
	Epsilon  float64 `json:"epsilon"`
	L1       float64 `json:"l1"`
	Weighted float64 `json:"weighted"`
	// Bins is the number of records L1 ranges over: the released ones
	// plus the never-released ones the graph currently gives weight.
	Bins int `json:"bins"`
	// Worst holds the top-K bins by residual, largest first.
	Worst []BinResidual `json:"worst,omitempty"`
}

// SinkResiduals is the optional sink interface residual reporting
// needs; NoisyCountSink implements it.
type SinkResiduals interface {
	// Bins returns the number of records L1 ranges over.
	Bins() int
	// WorstBins returns the k records with the largest term of L1,
	// largest first, with deterministic (list-order) tie-breaks.
	WorstBins(k int) []BinResidual
}

// Bins returns the number of records L1 ranges over: released plus live.
func (s *NoisyCountSink[T]) Bins() int { return len(s.order) }

// WorstBins returns the k records with the largest term of L1, largest
// first. Iteration follows s.order and ties keep the earlier-listed
// record, so the result is a deterministic function of the sink's pushes.
func (s *NoisyCountSink[T]) WorstBins(k int) []BinResidual {
	if k <= 0 {
		return nil
	}
	worst := make([]BinResidual, 0, k)
	for i, x := range s.order {
		q, m, r := s.term(i)
		if len(worst) == cap(worst) && r <= worst[len(worst)-1].Residual {
			continue
		}
		key, err := json.Marshal(x)
		if err != nil {
			key = []byte(fmt.Sprintf("%q", fmt.Sprint(x)))
		}
		b := BinResidual{Key: string(key), Released: m, Current: q, Residual: r}
		// Insert keeping descending order; > (strict) preserves list
		// order among equal residuals.
		i := sort.Search(len(worst), func(i int) bool { return b.Residual > worst[i].Residual })
		if len(worst) < cap(worst) {
			worst = append(worst, BinResidual{})
		}
		copy(worst[i+1:], worst[i:])
		worst[i] = b
	}
	return worst
}

// Residuals returns the per-workload breakdown of the current score,
// in sink attach order, each carrying its topK worst bins (for sinks
// that support bin reporting).
func (sc *Scorer) Residuals(topK int) []WorkloadResidual {
	out := make([]WorkloadResidual, 0, len(sc.sinks))
	for _, e := range sc.sinks {
		w := WorkloadResidual{
			Workload: e.name,
			Epsilon:  e.s.Epsilon(),
			L1:       e.s.L1(),
		}
		w.Weighted = w.Epsilon * w.L1
		if r, ok := e.s.(SinkResiduals); ok {
			w.Bins = r.Bins()
			w.Worst = r.WorstBins(topK)
		}
		out = append(out, w)
	}
	return out
}
