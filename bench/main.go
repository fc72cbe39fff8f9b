// Command bench is the wPINQ benchmark: four named workloads measured
// end to end (untraced) and layer by layer (traced), every layer timed
// from here around its public calls. BENCHMARK.json at the repository
// root declares it; README.md explains workloads, metrics and how the
// layers are predicted to move them.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//	go run ./bench run [-seed N] [-workload W] [-out FILE]         every workload, both ways
//	go run ./bench compare A.json B.json                           apply the declared bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = runSet(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = compare(args[1:], os.Stdout)
	default:
		err = runOne(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options selects one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	quick    bool
	outDir   string
}

// minRounds is the fewest rounds a direct workload runs however slow
// the machine: a quantile needs them.
func (o options) minRounds() int {
	if o.quick {
		return 1
	}
	return 3
}

// runOne is the driver contract: one workload, one seed, one JSON
// object as the last line of standard output.
func runOne(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (walk-hot, walk-cold, bulk-load, serve-durable)")
	fs.Int64Var(&o.seed, "seed", 1, "seed all inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 22, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	fs.BoolVar(&o.quick, "quick", false, "test-size profile: same code paths, about 1/20 of the work")
	fs.StringVar(&o.outDir, "outdir", "bench/out", "directory for trace files and the serve workload's store")
	detail := fs.String("detail", "", "also write the result with sample counts and spreads to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.traced = trace != 0
	out, err := measure(o)
	if err != nil {
		return err
	}
	printTable(out)
	if *detail != "" {
		data, err := json.Marshal(out)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*detail, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(contractLine(out))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs one workload once, traced or not, and checks that the
// result carries exactly the declared metrics.
func measure(o options) (outcome, error) {
	s, err := specByName(o.workload, o.quick)
	if err != nil {
		return outcome{}, err
	}
	window := time.Duration(o.seconds) * time.Second
	var out outcome
	declared := endToEnd
	if o.traced {
		declared = perLayer
		// The traced run is mostly fixed-size probes; only the serve
		// window scales, and it needs fewer sessions than the timed run.
		var tr *tracer
		out, tr = runTraced(s, o.seed, window*2/5, o.outDir)
		path, err := tr.write(o.outDir, s.name, o.seed)
		if err != nil {
			return out, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "trace written to", path)
	} else {
		if s.procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.procs))
		}
		if s.serve {
			out = runServe(s, o.seed, window, o.outDir)
		} else {
			out = runDirect(s, o.seed, window, o.minRounds())
		}
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.fail("nothing was attempted")
	}
	for _, d := range declared {
		m, ok := out.Metrics[d.name]
		switch {
		case !ok:
			// A probe that failed leaves its metrics out; the run is
			// already marked incorrect, report the gap as zero.
			out.problem("metric %s was not measured", d.name)
			out.Metrics[d.name] = metric{Unit: d.unit}
		case m.Unit != d.unit:
			return out, fmt.Errorf("metric %s measured in %q, declared %q", d.name, m.Unit, d.unit)
		}
	}
	if len(out.Metrics) != len(declared) {
		return out, fmt.Errorf("%d metrics measured, %d declared", len(out.Metrics), len(declared))
	}
	return out, nil
}

// contractLine strips a result down to the keys the driver reads.
func contractLine(out outcome) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out.Metrics))
	for name, m := range out.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, metrics}
}

// printTable prints every metric by name with unit and sample count.
func printTable(out outcome) {
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("%-28s %14.6g %-6s n=%d", name, m.Value, m.Unit, m.N)
		if m.N > 1 {
			fmt.Printf("  min %.6g  q1 %.6g  q3 %.6g  max %.6g", m.Min, m.Q1, m.Q3, m.Max)
		}
		if m.Note != "" {
			fmt.Printf("  (%s)", m.Note)
		}
		fmt.Println()
	}
	for _, p := range out.Problems {
		fmt.Println("PROBLEM:", p)
	}
	fmt.Printf("attempted %d  failed %d  correct %v\n", out.Attempted, out.Failed, out.Correct)
}
