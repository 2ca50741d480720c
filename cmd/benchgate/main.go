// Command benchgate is the benchmark regression gate: it runs the
// repo's hot-path benchmarks, writes the measurements to a JSON report
// (BENCH_simharness.json), and compares them against the committed
// baseline, failing with a nonzero exit on regression.
//
// Usage:
//
//	go run ./cmd/benchgate                  # run gated set, compare to baseline
//	go run ./cmd/benchgate -write           # refresh the committed baseline
//	go run ./cmd/benchgate -benchtime 100ms # quicker, noisier (CI uses this)
//	go run ./cmd/benchgate -all             # also run the ungated inventory
//
// Raw ns/op comparisons use a generous band (hardware differs across
// machines); allocs/op and the derived speedup ratios gate tightly,
// because both are nearly hardware-independent. See docs/benchmarking.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_simharness.json", "committed baseline to compare against")
		outPath      = flag.String("out", "", "write the fresh report here (default: only the baseline on -write)")
		write        = flag.Bool("write", false, "write the fresh report as the new baseline instead of comparing")
		benchtime    = flag.String("benchtime", "1s", "go test -benchtime per benchmark")
		count        = flag.Int("count", 1, "go test -count")
		all          = flag.Bool("all", false, "run every manifest benchmark, not just the gated set")
		maxNsRatio   = flag.Float64("max-ns-ratio", 0, "override ns/op tolerance (fresh/baseline)")
		maxAllocs    = flag.Float64("max-alloc-ratio", 0, "override allocs/op tolerance (fresh/baseline)")
	)
	flag.Parse()

	fresh, err := runBenchmarks(*benchtime, *count, *all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}

	if *outPath != "" {
		if err := writeReport(*outPath, fresh); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *outPath)
	}

	if *write {
		if err := writeReport(*baselinePath, fresh); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Println("wrote baseline", *baselinePath)
		printSummary(fresh)
		return
	}

	baseline, err := readReport(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: no baseline (%v); generate one with -write\n", err)
		os.Exit(1)
	}
	tol := defaultTolerances()
	if *maxNsRatio > 0 {
		tol.MaxNsRatio = *maxNsRatio
	}
	if *maxAllocs > 0 {
		tol.MaxAllocRatio = *maxAllocs
	}
	printSummary(fresh)
	if vs := compare(baseline, fresh, tol); len(vs) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d violation(s):\n", len(vs))
		for _, v := range vs {
			fmt.Fprintln(os.Stderr, "  -", v)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

// runBenchmarks shells out to `go test -bench` for the selected set
// and parses the output into a report.
func runBenchmarks(benchtime string, count int, all bool) (*Report, error) {
	args := []string{
		"test", "-run", "^$",
		"-bench", gatedPattern(all),
		"-benchtime", benchtime,
		"-benchmem",
		fmt.Sprintf("-count=%d", count),
		".",
	}
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	results := parseBenchOutput(string(out))
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed from:\n%s", out)
	}
	r := &Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(string(out)),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime,
		Results:    dedupeBest(results),
	}
	derive(r)
	return r, nil
}

// dedupeBest keeps the fastest run per benchmark when -count > 1.
func dedupeBest(results []BenchResult) []BenchResult {
	best := map[string]int{}
	var out []BenchResult
	for _, r := range results {
		if i, ok := best[r.Name]; ok {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		best[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// cpuModel extracts the `cpu:` header go test prints.
func cpuModel(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func printSummary(r *Report) {
	if v, ok := r.Derived["sim_invokes_per_wall_sec"]; ok {
		fmt.Printf("sim invokes/wall-sec: %.0f\n", v)
	}
	for _, k := range []string{"msgbus_batch_speedup", "workflow_chain_speedup"} {
		if v, ok := r.Derived[k]; ok {
			fmt.Printf("%s: %.2fx\n", k, v)
		}
	}
}
