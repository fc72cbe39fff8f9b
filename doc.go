// Package wpinq is a Go reproduction of "Calibrating Data to Sensitivity
// in Private Data Analysis" (Proserpio, Goldberg, McSherry; VLDB 2014):
// the wPINQ platform for differentially-private analysis of weighted
// datasets, its incremental query engine, and the MCMC workflow for
// synthesizing datasets from noisy measurements.
//
// The implementation lives under internal/ (see DESIGN.md for the module
// inventory). Incremental queries run on one executor (internal/engine):
// a round scheduler over a dataflow graph that runs every operator once
// per pushed change and can hash-partition each operator's record space
// across CPU shards, routing weight differences to their owning shard
// before applying them. The stateful operators' bodies live in
// internal/incremental, one instance per shard; equivalence tests pin
// both, at every shard layout, to the from-scratch semantics in
// internal/weighted.
//
// cmd/wpinq regenerates the paper's tables and figures, and examples/
// holds runnable demonstrations. bench_test.go at this root maps one
// benchmark to each table and figure, plus ablations of the design
// choices DESIGN.md calls out and BenchmarkEngineShards, which compares
// 1-shard and N-shard execution of the graph workloads.
package wpinq
