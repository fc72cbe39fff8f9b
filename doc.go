// Package wpinq is a Go reproduction of "Calibrating Data to Sensitivity
// in Private Data Analysis" (Proserpio, Goldberg, McSherry; VLDB 2014):
// the wPINQ platform for differentially-private analysis of weighted
// datasets, its incremental query engine, and the MCMC workflow for
// synthesizing datasets from noisy measurements.
//
// The implementation lives under internal/ (see DESIGN.md for the module
// inventory). Incremental queries run on one executor (internal/engine):
// a round scheduler over a dataflow graph that runs every operator once
// per pushed change: a proposal's round on the goroutine that pushes, a
// large load's on GOMAXPROCS goroutines, with branches that share no
// operator at once. The stateful operators' bodies live in
// internal/incremental, one per operator; equivalence tests pin both to
// the from-scratch semantics in internal/weighted. A fit is one
// Metropolis chain, as in the paper; a measurement evaluates its
// queries' exact answers concurrently and releases them in order.
//
// cmd/wpinq regenerates the paper's tables and figures, and examples/
// holds runnable demonstrations. bench_test.go at this root maps one
// benchmark to each table and figure, plus ablations of the design
// choices DESIGN.md calls out and BenchmarkBulkLoad, which times the
// executor's bulk push.
package wpinq
