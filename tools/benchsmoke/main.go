// Command benchsmoke is the benchmark regression gate: it runs the
// MCMC-relevant benchmarks, the one-shot measurement benchmark, the
// seed-graph benchmark and the bulk-load benchmark through
// `go test -bench -benchmem -json`,
// writes every parsed per-op metric to a JSON report (BENCH_mcmc.json
// in CI), and exits non-zero when a gated metric — ns/op, allocs/op,
// B/op, heapMB, or fragpushes/op — is more than -threshold times worse
// than the committed baseline.
//
// Usage:
//
//	go run ./tools/benchsmoke                  # compare against BENCH_baseline.json
//	go run ./tools/benchsmoke -update         # rewrite the baseline from this machine
//	go run ./tools/benchsmoke -bench 'BenchmarkRejectHeavy' -benchtime 3x
//	go run ./tools/benchsmoke -short          # CI profile: skips the 1e6-edge scale run
//	go run ./tools/benchsmoke -lint-clean     # require zero wpinqlint findings first (implied by -update)
//
// The committed baseline is a smoke threshold, not a precision
// measurement: single-iteration benchmark runs on shared CI machines are
// noisy, so the gate only catches gross regressions (the 2x default
// corresponds to, for example, reintroducing the second propagation per
// rejected MCMC proposal that the transactional protocol removed).
// Gating allocs/op and fragpushes/op alongside wall-clock catches the
// regressions a single-CPU box can't see in ns/op: per-step allocations
// and redundant fragment deliveries scale with hardware parallelism, so
// they are gated as counts, which are near-deterministic per run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

// gatedUnits are the per-op metrics compared against the baseline, in
// report order. Other units (accept-rate, ns/chainop, ...) are recorded
// in the report but informational only. B/op and heapMB gate the memory
// model alongside allocation counts: B/op catches a pooled buffer that
// silently grows per operation, heapMB (the scale benchmarks' measured
// high-water heap) catches footprint regressions that per-op metrics
// normalize away.
var gatedUnits = []string{"ns/op", "allocs/op", "B/op", "heapMB", "fragpushes/op"}

// report is the schema of both the baseline and the output file.
type report struct {
	// Benchmarks maps benchmark name (sub-benchmarks included,
	// GOMAXPROCS suffix stripped) to its per-op metrics by unit
	// ("ns/op", "allocs/op", ...).
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// event is the subset of the `go test -json` stream the parser needs.
// Output chunks of one package are concatenated before line scanning:
// test2json flushes a benchmark's name and its result line as separate
// partial-line events (the name prints before the iterations run), so
// matching per event would drop results.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// resultRe matches a benchmark result line, e.g.
// "BenchmarkRejectHeavy/txn-2   5   1512424698 ns/op   320 B/op   4 allocs/op".
var resultRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.+)$`)

// metricRe matches one "value unit" pair on a result line.
var metricRe = regexp.MustCompile(`(-?[0-9][0-9.eE+-]*)\s+([^\s]+)`)

func main() {
	bench := flag.String("bench", "BenchmarkRejectHeavy|BenchmarkChains|BenchmarkEngineShards|BenchmarkFusedChains|BenchmarkMillionEdge|BenchmarkMeasureOneShot|BenchmarkSeedGraph|BenchmarkBulkLoad",
		"benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "benchtime passed to go test")
	short := flag.Bool("short", false, "pass -short to go test (skips the million-edge full-scale run)")
	pkgs := flag.String("pkgs", ".", "package pattern to benchmark")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline to compare against")
	outPath := flag.String("out", "BENCH_mcmc.json", "where to write this run's results")
	threshold := flag.Float64("threshold", 2.0, "fail when a gated metric exceeds baseline by this factor")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	lintClean := flag.Bool("lint-clean", false,
		"assert the repo is wpinqlint-clean before benchmarking (implied by -update: a baseline must not be cut from a tree violating the checked invariants)")
	flag.Parse()

	if *lintClean || *update {
		if err := assertLintClean(); err != nil {
			fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
			os.Exit(1)
		}
	}

	results, err := run(*bench, *benchtime, *pkgs, *short)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
		os.Exit(1)
	}
	if len(results.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchsmoke: no benchmark results matched %q\n", *bench)
		os.Exit(1)
	}
	if err := write(*outPath, results); err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
		os.Exit(1)
	}
	if *update {
		if err := write(*baselinePath, results); err != nil {
			fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchsmoke: baseline %s updated with %d benchmarks\n", *baselinePath, len(results.Benchmarks))
		return
	}

	baseline, err := read(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: %v (run with -update to create it)\n", err)
		os.Exit(1)
	}
	failed := compare(baseline, results, *threshold, *short)
	if failed {
		os.Exit(1)
	}
}

// assertLintClean runs the wpinqlint invariant suite (standalone
// driver) over the module and fails if it reports anything: benchmark
// numbers measured on a tree that breaks the determinism, undo, or
// pooling invariants are not comparable to the baseline's.
func assertLintClean() error {
	cmd := exec.Command("go", "run", "./cmd/wpinqlint", "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("wpinqlint findings block the benchmark gate:\n%s", out)
	}
	fmt.Println("benchsmoke: wpinqlint clean")
	return nil
}

// run executes the benchmarks and parses every per-op metric per
// benchmark name.
func run(bench, benchtime, pkgs string, short bool) (report, error) {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-benchmem", "-json"}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.Command("go", append(args, pkgs)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return report{}, err
	}
	if err := cmd.Start(); err != nil {
		return report{}, err
	}
	streams := make(map[string]*bytes.Buffer)
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON lines (toolchain chatter)
		}
		if ev.Action != "output" {
			continue
		}
		buf := streams[ev.Package]
		if buf == nil {
			buf = &bytes.Buffer{}
			streams[ev.Package] = buf
		}
		buf.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return report{}, err
	}
	if err := cmd.Wait(); err != nil {
		return report{}, fmt.Errorf("go test -bench: %w", err)
	}
	res := report{Benchmarks: make(map[string]map[string]float64)}
	for _, buf := range streams {
		lines := bufio.NewScanner(buf)
		lines.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for lines.Scan() {
			m := resultRe.FindStringSubmatch(lines.Text())
			if m == nil {
				continue
			}
			units := res.Benchmarks[m[1]]
			if units == nil {
				units = make(map[string]float64)
				res.Benchmarks[m[1]] = units
			}
			for _, pair := range metricRe.FindAllStringSubmatch(m[2], -1) {
				v, err := strconv.ParseFloat(pair[1], 64)
				if err != nil {
					continue
				}
				units[pair[2]] = v
			}
		}
	}
	return res, nil
}

// compare reports each benchmark's gated metrics against the baseline
// and returns whether any exceeded the threshold. A gated unit absent
// from the baseline (recorded before the unit was gated) is informational
// until the baseline is regenerated with -update. A baseline benchmark
// that produced no result is a failure (a silently vanished benchmark
// would otherwise pass forever) — except under -short, where full-scale
// cases the baseline records from a complete run legitimately skip.
func compare(baseline, results report, threshold float64, short bool) bool {
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		got, ok := results.Benchmarks[name]
		if !ok {
			if short {
				fmt.Printf("skip %s: in baseline but not run under -short\n", name)
				continue
			}
			fmt.Printf("FAIL %s: present in baseline but produced no result\n", name)
			failed = true
			continue
		}
		for _, unit := range gatedUnits {
			base, inBase := baseline.Benchmarks[name][unit]
			cur, inRun := got[unit]
			switch {
			case !inBase:
				continue
			case !inRun:
				fmt.Printf("FAIL %s: baseline has %s but the run produced none\n", name, unit)
				failed = true
			case base == 0:
				// A zero baseline admits no ratio; anything nonzero is a
				// regression from literally free.
				status := "ok  "
				if cur > 0 {
					status = "FAIL"
					failed = true
				}
				fmt.Printf("%s %s: %.0f %s vs baseline 0\n", status, name, cur, unit)
			default:
				ratio := cur / base
				status := "ok  "
				if ratio > threshold {
					status = "FAIL"
					failed = true
				}
				fmt.Printf("%s %s: %.0f %s vs baseline %.0f (%.2fx, limit %.2fx)\n",
					status, name, cur, unit, base, ratio, threshold)
			}
		}
	}
	for name := range results.Benchmarks {
		if _, ok := baseline.Benchmarks[name]; !ok {
			fmt.Printf("note %s: not in baseline (add with -update)\n", name)
		}
	}
	return failed
}

func read(path string) (report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func write(path string, r report) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
