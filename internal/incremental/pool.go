package incremental

import "wpinq/internal/obs"

// poolEvents counts state-buffer pool requests. A steady-state MCMC walk
// should show the hit counter advancing while miss stays flat: every
// group the walk empties and re-creates is served from a node-local
// freelist instead of the allocator. A rising miss rate on a live wpinqd
// means the walk is still growing new state (warm-up) or a pipeline is
// churning keys faster than it recycles them.
var poolEvents = obs.Default.CounterVec("wpinq_pool_events_total",
	"State-buffer pool requests by outcome: hit reuses a recycled group, miss allocates a fresh one.",
	"outcome")

var (
	poolHit  = poolEvents.With("hit")
	poolMiss = poolEvents.With("miss")
)

// groupPool is a per-node freelist of empty key groups: a stateMap for
// GroupBy, a joinGroup (both sides' stateMaps under one key) for Join.
// Stateful operators create and drop key groups constantly during an
// MCMC walk (a vertex's path group empties when its last edge swaps
// away, then reappears a few proposals later); recycling the backing
// storage makes that churn allocation-free at steady state.
//
// Pooling cannot perturb results: only empty groups are pooled, and the
// caller recycles them first, which restores exactly the state a fresh
// stateMap starts with (see stateMap.recycle), so a pooled group differs
// from a new one only in spare capacity.
type groupPool[G any] struct {
	free []*G
}

func (p *groupPool[G]) get() *G {
	if n := len(p.free) - 1; n >= 0 {
		g := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		poolHit.Inc()
		return g
	}
	poolMiss.Inc()
	return new(G)
}

// put pools an empty, recycled group. The caller must have removed every
// reference to g first; handing over a non-empty group is a logic error
// (the next get would resurrect its records).
func (p *groupPool[G]) put(g *G) { p.free = append(p.free, g) }
