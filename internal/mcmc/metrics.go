package mcmc

import "wpinq/internal/obs"

// Sampler metrics. Counters are updated once per Run call (from the
// already-accumulated Stats), never inside the per-proposal loop, so
// instrumentation adds no work to the walk's hot path and cannot perturb
// seeded traces (it draws nothing from the chain rng).
var (
	stepsVec      = obs.Default.CounterVec("wpinq_mcmc_steps_total", "MCMC transitions by outcome.", "outcome")
	stepsAccepted = stepsVec.With("accepted")
	stepsRejected = stepsVec.With("rejected")
	stepsInvalid  = stepsVec.With("invalid")
)

// recordRun publishes one Run call's outcome counts.
func recordRun(st Stats) {
	stepsAccepted.Add(float64(st.Accepted))
	stepsRejected.Add(float64(st.Rejected))
	stepsInvalid.Add(float64(st.Invalid))
}
