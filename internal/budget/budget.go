// Package budget implements wPINQ's privacy accounting.
//
// Every sensitive input dataset is registered as a Source with a privacy
// budget. Queries track, statically from the query plan, how many times each
// source is used (paper Section 2.3: a dataset used k times in a query with
// an eps-DP aggregation costs k*eps). Aggregations debit uses*eps from each
// source's remaining budget and fail if any source would be overdrawn —
// sequential composition of differential privacy.
package budget

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Source identifies one protected input dataset and its remaining budget.
// A Source is safe for concurrent use.
type Source struct {
	name string

	mu     sync.Mutex
	budget float64
	spent  float64
}

// NewSource registers a protected dataset with a total privacy budget.
// A non-positive budget means the source can never be aggregated.
func NewSource(name string, budget float64) *Source {
	return &Source{name: name, budget: budget}
}

// Name returns the source's registered name.
func (s *Source) Name() string { return s.name }

// Remaining returns the unspent budget.
func (s *Source) Remaining() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget - s.spent
}

// Spent returns the cumulative privacy cost charged so far.
func (s *Source) Spent() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spent
}

// Budget returns the total budget the source was registered with.
func (s *Source) Budget() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// Snapshot is a point-in-time view of one source's ledger, safe to
// serialize for reporting (e.g. a curator service's budget endpoint).
type Snapshot struct {
	Name      string  `json:"name"`
	Budget    float64 `json:"budget"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
}

// Snapshot returns a consistent view of the source's ledger: all three
// figures are read under one lock, so Spent+Remaining == Budget even
// while concurrent aggregations are charging.
func (s *Source) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Name:      s.name,
		Budget:    s.budget,
		Spent:     s.spent,
		Remaining: s.budget - s.spent,
	}
}

// InsufficientBudgetError reports an aggregation that would overdraw a
// source's privacy budget.
type InsufficientBudgetError struct {
	Source    string
	Requested float64
	Remaining float64
}

func (e *InsufficientBudgetError) Error() string {
	return fmt.Sprintf("budget: source %q requires %g but has %g remaining",
		e.Source, e.Requested, e.Remaining)
}

// Charge debits cost from the source, failing atomically (no partial debit)
// when the remaining budget is insufficient.
func (s *Source) Charge(cost float64) error {
	if !(cost >= 0) || math.IsInf(cost, 1) { // NaN compares false: one NaN debit would make every later charge succeed
		return fmt.Errorf("budget: charge %g on source %q is not a finite non-negative number", cost, s.name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spent+cost > s.budget+1e-12 {
		return &InsufficientBudgetError{
			Source:    s.name,
			Requested: cost,
			Remaining: s.budget - s.spent,
		}
	}
	s.spent += cost
	return nil
}

// Uses maps sources to the number of times each appears in a query plan.
// A nil Uses is valid and means "no protected inputs".
type Uses map[*Source]int

// Single returns the use-count map for a query plan that references one
// source exactly once.
func Single(s *Source) Uses {
	return Uses{s: 1}
}

// Clone returns an independent copy.
func (u Uses) Clone() Uses {
	out := make(Uses, len(u))
	for s, n := range u {
		out[s] = n
	}
	return out
}

// Plus returns the use-counts of a query plan combining two subplans
// (e.g. the two inputs of a binary transformation): counts add.
func (u Uses) Plus(v Uses) Uses {
	out := u.Clone()
	for s, n := range v {
		out[s] += n
	}
	return out
}

// Times returns the use-counts scaled by k (e.g. a subplan duplicated k
// times by query rewriting).
func (u Uses) Times(k int) Uses {
	out := make(Uses, len(u))
	for s, n := range u {
		out[s] = n * k
	}
	return out
}

// Count returns the number of times source s is used.
func (u Uses) Count(s *Source) int { return u[s] }

// MaxCount returns the largest per-source use count; 0 for empty plans.
func (u Uses) MaxCount() int {
	m := 0
	for _, n := range u {
		if n > m {
			m = n
		}
	}
	return m
}

// ChargeAll atomically debits uses*eps from every source: either all
// sources are charged or none are. This implements the paper's rule that a
// query using source k times with an eps-DP aggregation is k*eps-DP for it.
func (u Uses) ChargeAll(eps float64) error {
	if eps < 0 {
		return fmt.Errorf("budget: negative epsilon %g", eps)
	}
	// Lock-free two-phase: charge in deterministic order, roll back on
	// failure. Sources are individually atomic; ordering by name makes the
	// behaviour deterministic for tests.
	srcs := make([]*Source, 0, len(u))
	for s := range u {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].name < srcs[j].name })
	charged := make([]*Source, 0, len(srcs))
	for _, s := range srcs {
		cost := float64(u[s]) * eps
		if err := s.Charge(cost); err != nil {
			for _, c := range charged {
				c.refund(float64(u[c]) * eps)
			}
			return err
		}
		charged = append(charged, s)
	}
	return nil
}

// Cost returns the total privacy cost of aggregating this plan at eps,
// summed over sources (useful for reporting; the per-source guarantee is
// uses[s]*eps for each s individually).
func (u Uses) Cost(eps float64) float64 {
	var total float64
	for _, n := range u {
		total += float64(n) * eps
	}
	return total
}

func (s *Source) refund(cost float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spent -= cost
	if s.spent < 0 {
		s.spent = 0
	}
}
