// Replica exchange (parallel tempering): the swap rule between Runners.
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
//
// The loop that runs the chains between swap rounds lives with its one
// caller, synth's fit.run; this file holds what that loop calls.
package mcmc

import (
	"math"
	"math/rand"
)

// ChainStats is one chain's view of a replica-exchange run: its walk
// statistics plus its position in the temperature ladder.
type ChainStats struct {
	// Chain is the index of the runner in the Exchange argument.
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

// Exchange proposes one Metropolis swap per ladder-adjacent pair of the
// given parity: even pairs (0,1)(2,3)… at 0, odd pairs (1,2)(3,4)… at 1.
// The caller alternates parity between rounds so every adjacency is
// exercised. A swap between chains a (colder, pow_a > pow_b) and b is
// accepted with probability
//
//	min(1, exp((pow_a − pow_b)(score_a − score_b)))
//
// — certain whenever the colder chain is fitting worse, so better
// configurations always migrate toward the cold end of the ladder. An
// accepted swap exchanges the two chains' pow assignments (state stays
// put, which is equivalent and free; see the package comment). One
// uniform variate is drawn per proposed pair whether or not the swap is
// forced, keeping rng consumption independent of the scores. ladder[k]
// is the chain holding the k-th coldest rung (largest pow first); stats
// is indexed like runners.
func Exchange(runners []*Runner, stats []ChainStats, ladder []int, parity int, rng *rand.Rand) {
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
