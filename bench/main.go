// Command e2ebench is the repository's end-to-end benchmark: it drives
// a real fwsim gateway process over HTTP with seeded, oracle-checked
// traffic and reports what a caller sees on both clocks (host and
// virtual); with -trace 1 it replays the same traffic against an
// in-process mirror of the gateway's wiring and reports per-layer
// figures. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the generated request sequence")
		seconds      = flag.Float64("seconds", 20, "length of the measured phase")
		ops          = flag.Int("ops", 0, "measure exactly this many ops instead of -seconds (same seed ⇒ identical virtual results)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from the gateway process; 1: per-layer metrics, traced")
		fwsim        = flag.String("fwsim", "bench/out/fwsim", "built gateway binary")
		outDir       = flag.String("outdir", "bench/out", "directory for gateway stderr, span dumps and results")
		out          = flag.String("out", "", "results file runs are appended to (default <outdir>/results.json)")
		compare      = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	selected := allWorkloads()
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("no workload %q", *workloadName))
		}
		selected = []*workload{w}
	}
	if *out == "" {
		*out = filepath.Join(*outDir, "results.json")
	}

	// A gateway never outlives the loader: stop() on the normal path,
	// this handler on SIGINT/SIGTERM, the parent-death signal otherwise.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllGateways()
		os.Exit(130)
	}()

	cfg := runConfig{fwsim: *fwsim, outDir: *outDir, seed: *seed, seconds: *seconds, ops: *ops, setups: 3}
	var last *result
	ok := true
	for _, w := range selected {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(cfg, w)
		} else {
			res, err = runUntraced(cfg, w)
		}
		if err != nil {
			killAllGateways()
			fatal(err)
		}
		res.print(os.Stdout)
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
		ok = ok && res.Correct
		last = res
	}
	// The last line of standard output is the machine-readable result of
	// the (last) workload run.
	line, err := json.Marshal(last.contract())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}
