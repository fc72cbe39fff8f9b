package mcmc

import (
	"strconv"

	"wpinq/internal/obs"
)

// Sampler metrics. Counters are updated once per Run call (from the
// already-accumulated Stats) and once per swap round, never inside the
// per-proposal loop, so instrumentation adds no work to the walk's hot
// path and cannot perturb seeded traces (it draws nothing from the
// chain rng).
var (
	stepsVec      = obs.Default.CounterVec("wpinq_mcmc_steps_total", "MCMC transitions by outcome.", "outcome")
	stepsAccepted = stepsVec.With("accepted")
	stepsRejected = stepsVec.With("rejected")
	stepsInvalid  = stepsVec.With("invalid")
	lastScore     = obs.Default.Gauge("wpinq_mcmc_last_score", "Fit score at the end of the most recent Run call (lower is better).")

	swapsVec      = obs.Default.CounterVec("wpinq_mcmc_swaps_total", "Replica-exchange swap proposals between ladder-adjacent chains, by outcome.", "outcome")
	swapsProposed = swapsVec.With("proposed")
	swapsAccepted = swapsVec.With("accepted")

	chainScore      = obs.Default.GaugeVec("wpinq_mcmc_chain_score", "Per-chain fit score at the latest swap-round barrier.", "chain")
	chainAcceptRate = obs.Default.GaugeVec("wpinq_mcmc_chain_accept_rate", "Per-chain cumulative proposal accept rate.", "chain")
	chainPow        = obs.Default.GaugeVec("wpinq_mcmc_chain_pow", "Per-chain posterior sharpening (ladder rung, moved by accepted swaps).", "chain")

	// A cumulative rate says nothing about now (a walk that froze an hour
	// ago still exports the rate it earned before): these two describe
	// only the chunk between RunDurable's last two stops.
	chunkAcceptRatio = obs.Default.HistogramVec("wpinq_fit_chunk_accept_ratio", "Per-chain share of proposals accepted in each chunk of a fit between two stops.",
		[]float64{0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}, "chain")
	chunkScoreDelta = obs.Default.GaugeVec("wpinq_fit_chunk_score_delta", "Per-chain fit score at the latest stop minus the score at the stop before (negative while the fit improves).", "chain")

	// fitRound's clock is read twice per stop of RunDurable, never per
	// proposal.
	fitRound = obs.Default.Histogram("wpinq_fit_round_seconds", "Wall seconds of each chunk of a fit between two stops (swap, checkpoint, progress or end), all chains.", nil)
)

// recordRun publishes one Run call's outcome counts.
func recordRun(st Stats) {
	stepsAccepted.Add(float64(st.Accepted))
	stepsRejected.Add(float64(st.Rejected))
	stepsInvalid.Add(float64(st.Invalid))
	lastScore.Set(st.FinalScore)
}

// recordChunk publishes what one chain did in the chunk just run: st is
// the chunk's own statistics, prev the chain's score at the stop before.
func recordChunk(chain int, st Stats, prev float64) {
	label := strconv.Itoa(chain)
	chunkAcceptRatio.With(label).Observe(st.AcceptRate())
	chunkScoreDelta.With(label).Set(st.FinalScore - prev)
}

// recordChains publishes per-chain gauges at a swap-round barrier.
func recordChains(stats []ChainStats) {
	for i := range stats {
		label := strconv.Itoa(stats[i].Chain)
		chainScore.With(label).Set(stats[i].FinalScore)
		chainAcceptRate.With(label).Set(stats[i].AcceptRate())
		chainPow.With(label).Set(stats[i].Pow)
	}
}
