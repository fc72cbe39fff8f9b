package main

// The remote subcommands are the client side of the wpinqd curator
// service: `wpinq remote measure` uploads an edge list and takes DP
// measurements of it on the server (which then discards the graph),
// `wpinq remote synthesize` fits a synthetic graph to a stored release
// as an asynchronous server-side job, `wpinq remote resume` re-attaches
// to (and if necessary re-queues) a durable job after a daemon restart,
// and `wpinq remote status` inspects ledgers, releases, and jobs.
// Machine-readable output (the measurement ID, the synthetic edge list)
// goes to stdout or -out; diagnostics go to stderr, so the verbs
// compose in scripts.

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"wpinq/internal/graph"
	"wpinq/internal/service"
	"wpinq/internal/synth"
	"wpinq/internal/workload"
)

func runRemote(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("remote: a verb is required: measure, synthesize, resume, status, audit, or health")
	}
	switch args[0] {
	case "measure":
		return runRemoteMeasure(args[1:])
	case "synthesize":
		return runRemoteSynthesize(args[1:])
	case "resume":
		return runRemoteResume(args[1:])
	case "status":
		return runRemoteStatus(args[1:])
	case "audit":
		return runRemoteAudit(args[1:])
	case "health":
		return runRemoteHealth(args[1:])
	}
	return fmt.Errorf("remote: unknown verb %q (want measure, synthesize, resume, status, audit, or health)", args[0])
}

func runRemoteMeasure(args []string) error {
	fs := flag.NewFlagSet("remote measure", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "wpinqd base URL")
	in := fs.String("in", "", "input edge list (u<TAB>v per line; # comments ok)")
	name := fs.String("name", "", "dataset name (default: derived server-side)")
	total := fs.Float64("budget", 0, "total privacy budget for the dataset (epsilon; required)")
	eps := fs.Float64("eps", 0.1, "per-measurement privacy parameter")
	names := fs.String("workloads", "tbi",
		"comma-separated fit workloads to measure (see `wpinq workloads`)")
	bucket := fs.Int("bucket", 20, "degree bucket width for bucketed workloads (e.g. tbd)")
	keep := fs.Bool("keep", false, "keep the protected graph on the server after measuring (default: discard)")
	seed := fs.Int64("seed", 0, "noise seed (0 = server-derived)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("remote measure: -in is required")
	}
	if *total <= 0 {
		return fmt.Errorf("remote measure: -budget is required and must be positive")
	}
	workloads, err := workload.ParseList(*names)
	if err != nil {
		return fmt.Errorf("remote measure: %w", err)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()

	c := service.NewClient(*server)
	ds, err := c.Upload(*name, *total, f)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "remote: uploaded %s as %s (%d nodes, %d edges, budget %g)\n",
		*in, ds.ID, ds.Nodes, ds.Edges, ds.Ledger.Budget)
	res, err := c.Measure(ds.ID, service.MeasureRequest{
		Eps: *eps, Workloads: workloads,
		Bucket: *bucket, Keep: *keep, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "remote: measured %s at cost %g (remaining budget %g, discarded=%v)\n",
		res.Measurement.ID, res.Cost, res.Ledger.Remaining, res.Discarded)
	// The measurement ID is the verb's machine-readable result.
	fmt.Println(res.Measurement.ID)
	return nil
}

func runRemoteSynthesize(args []string) error {
	fs := flag.NewFlagSet("remote synthesize", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "wpinqd base URL")
	measurement := fs.String("measurement", "", "stored measurement ID (from `wpinq remote measure`)")
	out := fs.String("out", "", "output synthetic edge list (default stdout)")
	fitNames := fs.String("workloads", "",
		"comma-separated fit workloads (default: every workload in the release)")
	steps := fs.Int("steps", 100000, "MCMC steps")
	pow := fs.Float64("pow", synth.DefaultPow, "posterior sharpening")
	checkpointEvery := fs.Int("checkpoint-every", 0,
		"checkpoint cadence in MCMC steps: >0 makes the job durable across daemon restarts (0 = not durable)")
	seed := fs.Int64("seed", 0, "job seed (0 = server-derived)")
	poll := fs.Duration("poll", 500*time.Millisecond, "progress polling interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *measurement == "" {
		return fmt.Errorf("remote synthesize: -measurement is required")
	}
	workloads, err := workload.ParseList(*fitNames)
	if err != nil {
		return fmt.Errorf("remote synthesize: %w", err)
	}
	req := service.JobRequest{
		Measurement:     *measurement,
		Workloads:       workloads,
		Steps:           *steps,
		Pow:             *pow,
		CheckpointEvery: *checkpointEvery,
		Seed:            *seed,
	}
	c := service.NewClient(*server)
	job, err := c.SubmitJob(req)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "remote: job %s submitted (%d steps)\n", job.ID, job.Steps)
	return waitJobResult(c, "remote synthesize", job.ID, *poll, *out)
}

// runRemoteResume re-attaches to a durable job after a daemon restart:
// a job the server's boot recovery already re-queued (or that is still
// running) is simply followed; a finished job's result is downloaded;
// anything else is re-queued from its persisted checkpoint via the
// resume endpoint.
func runRemoteResume(args []string) error {
	fs := flag.NewFlagSet("remote resume", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "wpinqd base URL")
	jobID := fs.String("job", "", "job ID to resume (required)")
	out := fs.String("out", "", "output synthetic edge list (default stdout)")
	poll := fs.Duration("poll", 500*time.Millisecond, "progress polling interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobID == "" {
		return fmt.Errorf("remote resume: -job is required")
	}
	c := service.NewClient(*server)
	st, err := c.Job(*jobID)
	switch {
	case err == nil && st.State == service.JobDone:
		fmt.Fprintf(os.Stderr, "remote: job %s already done\n", st.ID)
		return waitJobResult(c, "remote resume", st.ID, *poll, *out)
	case err == nil && !st.Terminal():
		fmt.Fprintf(os.Stderr, "remote: job %s already live (%s, step %d/%d)\n",
			st.ID, st.State, st.Step, st.Steps)
		return waitJobResult(c, "remote resume", st.ID, *poll, *out)
	}
	// Unknown or terminal-but-unfinished job: ask the server to re-queue
	// it from its checkpoint.
	st, err = c.ResumeJob(*jobID)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "remote: job %s resumed from step %d (%d steps total)\n",
		st.ID, st.ResumedFrom, st.Steps)
	return waitJobResult(c, "remote resume", st.ID, *poll, *out)
}

// waitJobResult follows a job to termination, prints its diagnostics to
// stderr, and writes the synthetic edge list to out (empty = stdout).
func waitJobResult(c *service.Client, verb, id string, poll time.Duration, out string) error {
	final, err := c.WaitJob(id, poll, func(st service.JobStatus) {
		if st.State == service.JobRunning {
			fmt.Fprintf(os.Stderr, "remote: %s step %d/%d score %.6g accept %.1f%%\n",
				st.ID, st.Step, st.Steps, st.Score, 100*st.AcceptRate)
		}
	})
	if err != nil {
		return err
	}
	if final.State != service.JobDone {
		return fmt.Errorf("%s: job %s finished %s: %s", verb, final.ID, final.State, final.Error)
	}
	fmt.Fprintf(os.Stderr, "remote: job %s done, final score %.6g (%d/%d accepted)\n",
		final.ID, final.Score, final.Accepted, final.Steps)
	printResiduals(os.Stderr, "remote:   ", final.Residuals)
	g, err := c.JobResult(final.ID)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		file, err := os.Create(out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	return graph.WriteEdgeList(w, g)
}

func runRemoteStatus(args []string) error {
	fs := flag.NewFlagSet("remote status", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "wpinqd base URL")
	jobID := fs.String("job", "", "show one job instead of the full overview")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := service.NewClient(*server)
	if *jobID != "" {
		st, err := c.Job(*jobID)
		if err != nil {
			return err
		}
		printJob(st)
		return nil
	}
	datasets, err := c.Datasets()
	if err != nil {
		return err
	}
	fmt.Printf("datasets (%d):\n", len(datasets))
	for _, d := range datasets {
		fmt.Printf("  %s %q: %d nodes, %d edges, budget %g spent %g remaining %g, discarded=%v\n",
			d.ID, d.Name, d.Nodes, d.Edges, d.Ledger.Budget, d.Ledger.Spent, d.Ledger.Remaining, d.Discarded)
	}
	measurements, err := c.Measurements()
	if err != nil {
		return err
	}
	fmt.Printf("measurements (%d):\n", len(measurements))
	for _, m := range measurements {
		fmt.Printf("  %s: eps %g, cost %g, kinds %v, %d bytes\n", m.ID, m.Eps, m.TotalCost, m.Kinds, m.Bytes)
	}
	jobs, err := c.Jobs()
	if err != nil {
		return err
	}
	fmt.Printf("jobs (%d):\n", len(jobs))
	for _, j := range jobs {
		fmt.Print("  ")
		printJob(j)
	}
	return nil
}

func printJob(st service.JobStatus) {
	fmt.Printf("%s [%s] measurement %s step %d/%d score %.6g accept %.1f%%",
		st.ID, st.State, st.Measurement, st.Step, st.Steps, st.Score, 100*st.AcceptRate)
	if st.Error != "" {
		fmt.Printf(" error: %s", st.Error)
	}
	fmt.Println()
	printResiduals(os.Stdout, "  ", st.Residuals)
	// The three dataflow nodes that moved the most differences.
	ops := slices.Clone(st.Operators)
	slices.SortStableFunc(ops, func(a, b service.OperatorProfile) int { return cmp.Compare(b.In+b.Out, a.In+a.Out) })
	for _, op := range ops[:min(3, len(ops))] {
		fmt.Printf("  operator %d %-10s rounds %d in %d out %d state %d\n", op.Index, op.Op, op.Rounds, op.In, op.Out, op.State)
	}
}

// printResiduals renders the per-workload fit-residual breakdown: which
// workload carries how much of the score, and which bins fit worst.
func printResiduals(w io.Writer, indent string, residuals []service.WorkloadResidual) {
	for _, wr := range residuals {
		fmt.Fprintf(w, "%sresidual %-10s eps %-6g L1 %-12.6g weighted %.6g (%d bins)\n",
			indent, wr.Workload, wr.Epsilon, wr.L1, wr.Weighted, wr.Bins)
		for _, b := range wr.Worst {
			fmt.Fprintf(w, "%s  worst bin %s: released %.4g current %g residual %.4g\n",
				indent, b.Key, b.Released, b.Current, b.Residual)
		}
	}
}

// runRemoteAudit replays a dataset's provenance chain client-side (see
// Client.AuditDataset) and reports the verdict; a failed audit is a
// non-zero exit so scripts and CI can gate on it.
func runRemoteAudit(args []string) error {
	fs := flag.NewFlagSet("remote audit", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "wpinqd base URL")
	dataset := fs.String("dataset", "", "dataset ID to audit (empty = every dataset on the server)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := service.NewClient(*server)
	ids := []string{*dataset}
	if *dataset == "" {
		datasets, err := c.Datasets()
		if err != nil {
			return err
		}
		ids = ids[:0]
		for _, d := range datasets {
			ids = append(ids, d.ID)
		}
	}
	failed := 0
	for _, id := range ids {
		rep, err := c.AuditDataset(id)
		if err != nil {
			return err
		}
		verdict := "OK"
		if !rep.OK {
			verdict = "FAILED"
			failed++
		}
		fmt.Printf("audit %s: %s — %d/%d records verified, replayed spend %g (ledger: %g spent of %g)\n",
			id, verdict, rep.Verified, rep.Records, rep.SpentReplayed, rep.LedgerSpent, rep.LedgerBudget)
		for _, p := range rep.Problems {
			fmt.Printf("  problem: %s\n", p)
		}
	}
	if failed > 0 {
		return fmt.Errorf("remote audit: %d dataset(s) failed", failed)
	}
	return nil
}

func runRemoteHealth(args []string) error {
	fs := flag.NewFlagSet("remote health", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "wpinqd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := service.NewClient(*server).Health()
	if err != nil {
		return err
	}
	fmt.Printf("status:       %s\n", h.Status)
	if h.Version != "" {
		fmt.Printf("version:      %s\n", h.Version)
	}
	fmt.Printf("go:           %s\n", h.GoVersion)
	fmt.Printf("uptime:       %s\n", (time.Duration(h.UptimeSeconds * float64(time.Second))).Round(time.Second))
	fmt.Printf("active jobs:  %d\n", h.ActiveJobs)
	fmt.Printf("datasets:     %d\n", h.Datasets)
	fmt.Printf("measurements: %d\n", h.Measurements)
	return nil
}
