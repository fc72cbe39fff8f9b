package incremental

import (
	"math"

	"wpinq/internal/obs"
)

// poolEvents counts state-buffer pool requests: a GroupBy's key groups
// and a join side's spills. A steady-state MCMC walk should show the hit
// counter advancing while miss stays flat: every group or spill the walk
// empties and re-creates is served from a node-local freelist instead of
// the allocator. A rising miss rate on a live wpinqd
// means the walk is still growing new state (warm-up) or a pipeline is
// churning keys faster than it recycles them.
var poolEvents = obs.Default.CounterVec("wpinq_pool_events_total",
	"State-buffer pool requests (GroupBy key groups, join spills) by outcome: hit reuses a recycled one, miss allocates a fresh one.",
	"outcome")

var (
	poolHit  = poolEvents.With("hit")
	poolMiss = poolEvents.With("miss")
)

// groupPool is a GroupBy's freelist of empty key groups. Stateful
// operators create and drop key groups constantly during an MCMC walk
// (a vertex's path group empties when its last edge swaps away, then
// reappears a few proposals later); recycling the backing storage makes
// that churn allocation-free at steady state.
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

// spillPool holds the spills of one side of a join: the stateMaps of the
// key groups whose side has held more than one record. A spill stays at
// its address while issued — the side's undo log points at it — and is
// named by a 1-based index, so a join's groups hold no pointer. A spill
// whose side fits inline again is recycled and reissued before a new
// one is made; recycling restores what a new stateMap starts with, as
// groupPool's does.
type spillPool[T comparable] struct {
	maps []*stateMap[T] // spill i is maps[i-1]
	free []int32
}

// get returns an empty spill.
func (p *spillPool[T]) get() int32 {
	if n := len(p.free) - 1; n >= 0 {
		i := p.free[n]
		p.free = p.free[:n]
		poolHit.Inc()
		return i
	}
	poolMiss.Inc()
	p.maps = append(p.maps, new(stateMap[T]))
	return int32(len(p.maps))
}

// at returns spill i.
func (p *spillPool[T]) at(i int32) *stateMap[T] { return p.maps[i-1] }

// put recycles the empty spill i and frees it for reissue.
func (p *spillPool[T]) put(i int32) {
	p.at(i).recycle()
	p.free = append(p.free, i)
}

// end closes spill i (0: none) once its transaction has resolved. A
// spill the transaction made is not kept at abort: abort has unwound it
// to empty, and it returns to the pool.
func (p *spillPool[T]) end(i int32, keep bool) {
	if i == 0 {
		return
	}
	p.at(i).endLog()
	if !keep {
		p.put(i)
	}
}

// settle returns spill i to the pool once its side fits inline again,
// which brings the side back inline, in in: empty — the zero side, whose
// norm reads exactly zero where the spill's may carry float dust — or
// holding the one record whose weight's magnitude is exactly the
// spill's norm, which is then all the side reads the same inline. A
// side whose norm carries dust stays spilled. A path- or edge-keyed
// side whose record is replaced in a proposal, its new record arriving
// before the old one leaves, so spills for a moment and not for good.
func (p *spillPool[T]) settle(spill *int32, in *joinSide[T]) {
	if *spill == 0 {
		return
	}
	switch m := p.at(*spill); {
	case m.len() == 0:
	case m.len() == 1 && m.norm == math.Abs(m.ws[0]):
		*in = joinSide[T]{m.recs[0], m.ws[0]}
	default:
		return
	}
	p.put(*spill)
	*spill = 0
}
