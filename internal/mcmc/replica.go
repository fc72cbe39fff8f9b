// Replica-exchange (parallel tempering) orchestration over Runners.
//
// The paper (Section 4.2) observes that a large pow "slows down the
// convergence of MCMC but eventually results in outputs that more
// closely fit the measurements". Replica exchange takes both sides of
// that trade-off at once: K chains walk the same posterior sharpened by
// a ladder of pow values, hot (small-pow) chains explore while cold
// (large-pow) chains refine, and periodic Metropolis swap proposals
// between adjacent rungs let a good configuration discovered by a hot
// chain migrate down the ladder to the cold ones.
//
// Swaps exchange temperatures, not graph states: moving a pow value
// between two runners is equivalent to moving their configurations (the
// joint density only sees (pow, state) pairs) and costs nothing, while
// swapping graphs would mean re-pushing whole edge datasets through
// both chains' dataflow pipelines.
package mcmc

import (
	"math"
	"math/rand"
)

// defaultSwapEvery is the swap cadence when a config leaves it unset.
const defaultSwapEvery = 1024

// ReplicaConfig parameterizes RunReplicas.
type ReplicaConfig struct {
	// Steps is the walk length of every chain (not a shared budget: K
	// chains each run Steps proposals).
	Steps int
	// SwapEvery is the number of steps between swap rounds (default
	// 1024). All chains barrier at each swap round, so it also bounds
	// how far chains drift apart in wall-clock.
	SwapEvery int
	// OnRound, when set, observes the per-chain statistics after every
	// swap round (and after the final partial round). Returning false
	// cancels the run: every chain stops at the barrier it has already
	// reached, never mid-proposal.
	OnRound func(done int, chains []ChainStats) bool
}

// ChainStats is one chain's view of a replica-exchange run: its walk
// statistics plus its position in the temperature ladder.
type ChainStats struct {
	// Chain is the index of the runner in the RunReplicas argument.
	Chain int
	// Pow is the chain's current posterior sharpening — its initial
	// ladder rung, moved by accepted swaps.
	Pow float64
	// SwapsProposed and SwapsAccepted count the exchange proposals this
	// chain participated in.
	SwapsProposed int
	SwapsAccepted int
	Stats
}

// ReplicaResult is the outcome of a replica-exchange run.
type ReplicaResult struct {
	// Chains holds per-chain statistics, indexed like the runners.
	Chains []ChainStats
	// Best is the index of the chain with the lowest final score.
	Best int
	// Cancelled reports that OnRound stopped the run early.
	Cancelled bool
}

// RunReplicas drives len(runners) chains concurrently for cfg.Steps
// steps each, proposing Metropolis swaps of pow assignments between
// temperature-adjacent chains every cfg.SwapEvery steps. Each runner
// must have its own GraphState, scoring pipeline, and rng; the chains
// share nothing, so the per-chunk goroutines race on nothing and a run
// is deterministic for fixed runner seeds and a fixed swapRng.
//
// A single runner degenerates to exactly that runner's Run(cfg.Steps)
// proposal trace (no swap rounds, swapRng unused and may be nil).
func RunReplicas(runners []*Runner, cfg ReplicaConfig, swapRng *rand.Rand) (ReplicaResult, error) {
	swapEvery := cfg.SwapEvery
	if swapEvery <= 0 {
		swapEvery = defaultSwapEvery
	}
	// RunDurable's schedule without checkpoint stops. RoundEvery makes a
	// single chain, which has no swap rounds, report at a ladder's cadence.
	return RunDurable(runners, DurableConfig{
		Steps:      cfg.Steps,
		SwapEvery:  swapEvery,
		RoundEvery: swapEvery,
		OnRound:    cfg.OnRound,
	}, swapRng)
}

// exchange proposes one Metropolis swap per ladder-adjacent pair,
// alternating even pairs (0,1)(2,3)… and odd pairs (1,2)(3,4)… between
// rounds so every adjacency is exercised. A swap between chains a
// (colder, pow_a > pow_b) and b is accepted with probability
//
//	min(1, exp((pow_a − pow_b)(score_a − score_b)))
//
// — certain whenever the colder chain is fitting worse, so better
// configurations always migrate toward the cold end of the ladder. An
// accepted swap exchanges the two chains' pow assignments (state stays
// put, which is equivalent and free; see the package comment). One
// uniform variate is drawn per proposed pair whether or not the swap is
// forced, keeping rng consumption independent of the scores.
func exchange(runners []*Runner, stats []ChainStats, ladder []int, parity int, rng *rand.Rand) {
	for k := parity; k+1 < len(ladder); k += 2 {
		a, b := ladder[k], ladder[k+1]
		stats[a].SwapsProposed++
		stats[b].SwapsProposed++
		swapsProposed.Inc()
		powA, powB := runners[a].cfg.Pow, runners[b].cfg.Pow
		exponent := (powA - powB) * (runners[a].Score() - runners[b].Score())
		if rng.Float64() >= math.Exp(math.Min(0, exponent)) {
			continue
		}
		runners[a].cfg.Pow, runners[b].cfg.Pow = powB, powA
		stats[a].Pow, stats[b].Pow = powB, powA
		stats[a].SwapsAccepted++
		stats[b].SwapsAccepted++
		swapsAccepted.Inc()
		ladder[k], ladder[k+1] = b, a
	}
}
