// Command wpinq regenerates the tables and figures of "Calibrating Data to
// Sensitivity in Private Data Analysis" (Proserpio, Goldberg, McSherry;
// VLDB 2014) using this repository's wPINQ implementation.
//
// Usage:
//
//	wpinq <experiment> [flags]
//
// Experiments: table1, table2, table3, fig1, fig3, fig4, fig5, fig6, all.
//
// Beyond the experiments it ships the workflow tools (measure,
// synthesize, motif, workloads) and the `remote` verbs, which drive a
// wpinqd curator server (see cmd/wpinqd). Fit workloads are named
// against the workload registry; `wpinq workloads` lists them.
//
// The defaults run each experiment on one machine in minutes by scaling the
// paper's datasets and MCMC budgets down; raise -scale and -steps to
// approach the paper's setup (see README.md for the scale mapping).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wpinq/internal/experiments"
)

var runners = map[string]func(experiments.Options) error{
	"regression": experiments.Regression,
	"table1":     experiments.Table1,
	"table2":     experiments.Table2,
	"table3":     experiments.Table3,
	"fig1":       experiments.Fig1,
	"fig3":       experiments.Fig3,
	"fig4":       experiments.Fig4,
	"fig5":       experiments.Fig5,
	"fig6":       experiments.Fig6,
}

var order = []string{"table1", "fig1", "fig3", "table2", "fig4", "fig5", "table3", "fig6", "regression"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wpinq:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("an experiment name is required")
	}
	name := args[0]
	switch name {
	case "measure":
		return runMeasure(args[1:])
	case "synthesize":
		return runSynthesize(args[1:])
	case "motif":
		return runMotif(args[1:])
	case "workloads":
		return runWorkloads(args[1:])
	case "remote":
		return runRemote(args[1:])
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	opts := experiments.Defaults(os.Stdout)
	fs.Float64Var(&opts.Scale, "scale", opts.Scale,
		"dataset scale relative to the paper (1.0 = paper size)")
	fs.Float64Var(&opts.EpinionsScale, "epinions-scale", opts.EpinionsScale,
		"scale for the Epinions stand-in only")
	fs.IntVar(&opts.Steps, "steps", opts.Steps, "MCMC steps per run")
	fs.Float64Var(&opts.Eps, "eps", opts.Eps, "per-measurement privacy parameter")
	fs.Float64Var(&opts.Pow, "pow", opts.Pow, "MCMC posterior sharpening")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	fs.IntVar(&opts.Samples, "samples", opts.Samples, "trajectory points per figure line")
	fs.IntVar(&opts.Repeats, "repeats", opts.Repeats, "repetitions for error bars (fig5)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	names := []string{name}
	if name == "all" {
		names = order
	}
	for _, n := range names {
		fn, ok := runners[n]
		if !ok {
			usage()
			return fmt.Errorf("unknown experiment %q", n)
		}
		start := time.Now()
		if err := fn(opts); err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		fmt.Fprintf(os.Stdout, "# %s completed in %v\n\n", n, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wpinq <experiment> [flags]

experiments:
  table1   graph statistics of every dataset stand-in vs the paper's values
  fig1     worst/best-case triangle counting motivation
  fig3     TbD synthesis with and without degree bucketing (GrQc)
  table2   triangles: seed vs TbI-fit vs truth on four graphs
  fig4     TbI fit trajectories, real vs random, four graphs
  fig5     TbI under eps in {0.01, 0.1, 1, 10} with error bars
  table3   Barabasi-Albert sweep statistics
  fig6     scalability (memory, steps/sec) and the Epinions fit
  regression  Section 3.1 post-processing quality across eps
  all      everything above, in paper order

workflow tools:
  measure     take DP measurements of an edge-list file -> measurements JSON
  synthesize  build a synthetic graph from a measurements JSON
  motif       release a DP motif prevalence (triangle/square/wedge/star4)
  workloads   list the registered fit workloads (names for -workloads flags)

remote verbs (clients of a wpinqd curator server; see `+"`wpinqd -h`"+`):
  remote measure     upload an edge list and take DP measurements server-side
  remote synthesize  run an async synthesis job against a stored release
  remote resume      re-attach to (or re-queue) a durable job after a restart
  remote status      inspect dataset ledgers, releases, and jobs

flags (after the experiment name): -scale -epinions-scale -steps -eps -pow -seed -samples -repeats
(measure/synthesize/motif and the remote verbs take their own flags; run them with -h)`)
}
