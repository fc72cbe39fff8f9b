package main

// The measure/synthesize subcommands expose the paper's Section 5.1
// workflow as a practical tool: `wpinq measure` takes differentially
// private measurements of an edge-list file and writes them as JSON (after
// which the original data is no longer needed); `wpinq synthesize` builds
// a synthetic graph from a measurements file alone.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"wpinq/internal/graph"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

func runMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list (u<TAB>v per line; # comments ok)")
	out := fs.String("out", "", "output measurements JSON (default stdout)")
	eps := fs.Float64("eps", 0.1, "per-measurement privacy parameter")
	names := fs.String("workloads", "tbi",
		"comma-separated fit workloads to measure (see `wpinq workloads`)")
	bucket := fs.Int("bucket", 20, "degree bucket width for bucketed workloads (e.g. tbd)")
	seed := fs.Int64("seed", 1, "random seed for the noise")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("measure: -in is required")
	}
	workloads, err := workload.ParseList(*names)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return err
	}
	if g.NumEdges() == 0 {
		return fmt.Errorf("measure: %s contains no edges", *in)
	}
	fmt.Fprintf(os.Stderr, "measure: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	cfg := synth.Config{
		Eps:       *eps,
		Workloads: workloads,
		Bucket:    *bucket,
	}
	m, err := synth.Measure(g, cfg, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "measure: total privacy cost %.4g\n", m.TotalCost)

	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	return m.Save(w)
}

func runSynthesize(args []string) error {
	fs := flag.NewFlagSet("synthesize", flag.ContinueOnError)
	in := fs.String("in", "", "input measurements JSON (from `wpinq measure`)")
	out := fs.String("out", "", "output synthetic edge list (default stdout)")
	names := fs.String("workloads", "",
		"comma-separated fit workloads (default: every workload in the measurements)")
	steps := fs.Int("steps", 100000, "MCMC steps")
	pow := fs.Float64("pow", synth.DefaultPow, "posterior sharpening")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("synthesize: -in is required")
	}
	workloads, err := workload.ParseList(*names)
	if err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(*seed))
	m, err := synth.LoadMeasurements(f, rng)
	if err != nil {
		return err
	}
	seedGraph, err := synth.SeedGraph(m, rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "synthesize: seed graph %d nodes, %d edges, %d triangles\n",
		seedGraph.NumNodes(), seedGraph.NumEdges(), seedGraph.Triangles())

	cfg := synth.Config{
		Eps:       m.Eps,
		Workloads: workloads, // empty = every workload in the file
		Pow:       *pow,
		Steps:     *steps,
	}
	res, err := synth.Synthesize(m, seedGraph, cfg, rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "synthesize: %d steps (%d accepted, rate %.1f%%), synthetic graph has %d triangles\n",
		res.Stats.Steps, res.Stats.Accepted, 100*res.Stats.AcceptRate(), res.Synthetic.Triangles())

	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	return graph.WriteEdgeList(w, res.Synthetic)
}
