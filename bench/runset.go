package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runReport is one full set: every workload untraced and traced.
type runReport struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Env       environment      `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

type workloadReport struct {
	Name     string  `json:"name"`
	Why      string  `json:"why"`
	EndToEnd outcome `json:"end_to_end"`
	PerLayer outcome `json:"per_layer"`
}

// commit names the checked-out commit, marked when the tree differs.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(head))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		id += "+uncommitted"
	}
	return id
}

// runSet runs each workload in a fresh child process, first untraced
// for the end-to-end numbers and then traced for the per-layer ones:
// peak RSS is per workload, and the packed-node interner is
// process-global.
func runSet(args []string) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	secs := fs.Int("seconds", 22, "length of each measured window")
	only := fs.String("workload", "", "run only this workload")
	quick := fs.Bool("quick", false, "test-size profile")
	outFile := fs.String("out", "", "write the report to this file")
	outDir := fs.String("outdir", "bench/out", "directory for trace files and scratch data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	report := runReport{Seed: *seed, Seconds: *secs, Quick: *quick, Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
	}}
	failed := false
	for _, s := range specs(*quick) {
		if *only != "" && s.name != *only {
			continue
		}
		wr := workloadReport{Name: s.name, Why: s.why}
		for _, trace := range []string{"0", "1"} {
			fmt.Printf("== %s (trace %s)\n", s.name, trace)
			detail := filepath.Join(*outDir, "detail.json")
			child := []string{
				"--workload", s.name, "--seed", strconv.FormatInt(*seed, 10), "--seconds", strconv.Itoa(*secs),
				"--trace", trace, "-outdir", *outDir, "-detail", detail,
			}
			if *quick {
				child = append(child, "-quick")
			}
			cmd := exec.Command(self, child...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			data, err := os.ReadFile(detail)
			if err != nil {
				return err
			}
			var out outcome
			if err := json.Unmarshal(data, &out); err != nil {
				return fmt.Errorf("%s: %w", detail, err)
			}
			if err := os.Remove(detail); err != nil {
				return err
			}
			failed = failed || !out.Correct
			if trace == "1" {
				wr.PerLayer = out
			} else {
				wr.EndToEnd = out
			}
		}
		report.Workloads = append(report.Workloads, wr)
	}
	if len(report.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", *only)
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("report written to", *outFile)
	}
	if failed {
		return fmt.Errorf("an output check failed")
	}
	return nil
}

func loadReport(path string) (runReport, error) {
	var r runReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare applies each end-to-end metric's declared bound to every
// workload row of two reports (base first) and prints every ratio with
// its base. It fails on a regression or a higher failed share.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare BASE.json NEW.json")
	}
	base, err := loadReport(args[0])
	if err != nil {
		return err
	}
	next, err := loadReport(args[1])
	if err != nil {
		return err
	}
	byName := map[string]workloadReport{}
	for _, wr := range next.Workloads {
		byName[wr.Name] = wr
	}
	regressions := 0
	for _, b := range base.Workloads {
		n, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%s: missing from %s\n", b.Name, args[1])
			regressions++
			continue
		}
		fmt.Fprintf(w, "== %s\n", b.Name)
		for _, d := range endToEnd {
			verdict := judge(d, b.EndToEnd.Metrics[d.name], n.EndToEnd.Metrics[d.name])
			if verdict == "REGRESSION" {
				regressions++
			}
			printRatio(w, d, b.EndToEnd.Metrics[d.name], n.EndToEnd.Metrics[d.name], verdict)
		}
		bs, ns := failedShare(b.EndToEnd), failedShare(n.EndToEnd)
		verdict := "ok"
		if ns > bs {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "  %-26s base %.4g (%d/%d)  new %.4g (%d/%d)  %s\n", "failed_share", bs, b.EndToEnd.Failed, b.EndToEnd.Attempted, ns, n.EndToEnd.Failed, n.EndToEnd.Attempted, verdict)
		for _, d := range perLayer {
			printRatio(w, d, b.PerLayer.Metrics[d.name], n.PerLayer.Metrics[d.name], "")
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}

func failedShare(o outcome) float64 {
	if o.Attempted == 0 {
		return 1
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// worse returns by what share of base the new value is worse (negative
// when it is better).
func worse(d metricDef, base, next float64) float64 {
	if base == 0 {
		return 0
	}
	if d.better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// judge applies d's bound. A metric whose within-run spread (quartile
// distance of its samples over the value) exceeds the bound on either
// side cannot resolve a difference of that size: it is unresolved, not
// unchanged, unless every sample of new is better than every sample of
// base.
func judge(d metricDef, base, next metric) string {
	w := worse(d, base.Value, next.Value)
	wide := spread(base) > d.bound || spread(next) > d.bound
	if wide {
		apart := next.Max < base.Min
		if d.better == "higher" {
			apart = next.Min > base.Max
		}
		if apart && base.N > 1 && next.N > 1 {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case w > d.bound:
		return "REGRESSION"
	case w < -d.bound:
		return "better"
	}
	return "ok"
}

func spread(m metric) float64 {
	if m.N < 2 || m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}

func printRatio(w io.Writer, d metricDef, base, next metric, verdict string) {
	ratio := 0.0
	if base.Value != 0 {
		ratio = next.Value / base.Value
	}
	bound := ""
	if d.bound > 0 {
		bound = fmt.Sprintf("bound %.0f%% %s  spread %.1f%%/%.1f%%  ", 100*d.bound, d.better, 100*spread(base), 100*spread(next))
	}
	fmt.Fprintf(w, "  %-26s base %.6g %s (n=%d)  new %.6g (n=%d)  ratio %.3f  %s%s\n",
		d.name, base.Value, d.unit, base.N, next.Value, next.N, ratio, bound, verdict)
}
