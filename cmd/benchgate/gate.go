package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's measurements as recorded in
// BENCH_simharness.json.
type BenchResult struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	AllocsOp   float64 `json:"allocs_per_op,omitempty"`
	BytesOp    float64 `json:"bytes_per_op,omitempty"`
	// Custom carries `b.ReportMetric` extras, e.g. ns_virtual/op for
	// the virtual-time experiment benchmarks or records/op for the
	// msgbus batch benchmark.
	Custom map[string]float64 `json:"custom,omitempty"`
}

// Report is the schema of BENCH_simharness.json. Derived holds
// machine-comparable ratios (speedups and throughput) computed from
// the raw results; ratios of two numbers from the same run cancel out
// most of the host's absolute speed, so they gate much tighter than
// raw ns/op.
type Report struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPU        string             `json:"cpu,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchtime  string             `json:"benchtime"`
	Results    []BenchResult      `json:"results"`
	Derived    map[string]float64 `json:"derived"`
}

func (r *Report) result(name string) *BenchResult {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkMetricsParallel-4   10362654   45.85 ns/op   1 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseBenchOutput extracts results from `go test -bench` output.
// The trailing -N GOMAXPROCS suffix is stripped from names so reports
// compare across machines with different core counts.
func parseBenchOutput(out string) []BenchResult {
	var results []BenchResult
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := BenchResult{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[3])
		// Metrics come as value/unit pairs: `45.85 ns/op 1 B/op ...`.
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesOp = v
			case "allocs/op":
				r.AllocsOp = v
			default:
				if r.Custom == nil {
					r.Custom = map[string]float64{}
				}
				r.Custom[unit] = v
			}
		}
		results = append(results, r)
	}
	return results
}

// derive computes the report's derived ratios:
//
//   - sim_invokes_per_wall_sec: how many simulated invocations the
//     harness replays per wall-clock second (1e9 / ns_per_op of
//     BenchmarkFireworksInvoke) — the headline "is the simulator still
//     fast" number.
//   - msgbus_batch_speedup: per-record produce/consume ns/op ÷ batched
//     ns/op.
func derive(r *Report) {
	r.Derived = map[string]float64{}
	if b := r.result("BenchmarkFireworksInvoke"); b != nil && b.NsPerOp > 0 {
		r.Derived["sim_invokes_per_wall_sec"] = 1e9 / b.NsPerOp
	}
	ratio := func(key, num, den string) {
		n, d := r.result(num), r.result(den)
		if n != nil && d != nil && d.NsPerOp > 0 {
			r.Derived[key] = n.NsPerOp / d.NsPerOp
		}
	}
	ratio("msgbus_batch_speedup", "BenchmarkMsgbusBatch/single", "BenchmarkMsgbusBatch/batch")
	// Virtual-time and virtual-bytes ratios are deterministic (the
	// simulator charges fixed costs on the virtual clock), so they gate
	// much tighter than wall-clock numbers.
	custom := func(key, unit, num, den string) {
		n, d := r.result(num), r.result(den)
		if n != nil && d != nil && d.Custom[unit] > 0 {
			r.Derived[key] = n.Custom[unit] / d.Custom[unit]
		}
	}
	custom("restore_delta_speedup", "ns_virtual/op", "BenchmarkRestoreDelta/flat", "BenchmarkRestoreDelta/delta")
	custom("restore_delta_bytes_ratio", "vbytes/op", "BenchmarkRestoreDelta/flat", "BenchmarkRestoreDelta/delta")
	custom("prefetch_replay_speedup", "ns_virtual/op", "BenchmarkPrefetchReplay/demand", "BenchmarkPrefetchReplay/replay")
	custom("workflow_chain_speedup", "ns_virtual/op", "BenchmarkWorkflowChain/handwired", "BenchmarkWorkflowChain/declarative")
	custom("tail_sampling_reduction", "vbytes/op", "BenchmarkTailSampling/full", "BenchmarkTailSampling/sampled")
}

// Tolerances bound how far a fresh run may drift from the committed
// baseline before the gate fails.
type Tolerances struct {
	// MaxNsRatio bounds fresh ns/op ÷ baseline ns/op. Wall time moves
	// with the host, so this band is generous; the committed baseline
	// mainly guards against order-of-magnitude regressions.
	MaxNsRatio float64
	// MaxAllocRatio bounds fresh allocs/op ÷ baseline allocs/op (after
	// AllocSlack), both ways. Allocation counts are hardware-independent,
	// so this band is tight, and a fresh count below it means the
	// baseline no longer records the tree: a regression back to the
	// stale count would pass.
	MaxAllocRatio float64
	// AllocSlack is an absolute allowance added to the baseline before
	// the ratio check, so a 0→1 allocs/op change on a tiny benchmark
	// does not divide by zero (and a 2→3 change on a small one does
	// not read as 1.5x).
	AllocSlack float64
	// MinSpeedups gates the derived ratios: each key must be at least
	// its value in the fresh report.
	MinSpeedups map[string]float64
	// MaxAllocs bounds a benchmark's fresh allocs/op absolutely, for a
	// path whose allocation count is a design property rather than
	// whatever the baseline happened to record.
	MaxAllocs map[string]float64
	// Counted lists, per benchmark, custom metrics that count work the
	// simulation does rather than time the host takes — ops executed,
	// virtual time charged. They are exact on any machine, so a fresh
	// value must equal the baseline's: a change is a change of behaviour,
	// and needs a deliberate re-recording of the baseline.
	Counted map[string][]string
}

// samplerCounts are BenchmarkSamplerSample's counted metrics.
var samplerCounts = []string{"blocks_stepped/sample", "samples_moved/sample", "instruments/sample"}

func defaultTolerances() Tolerances {
	return Tolerances{
		MaxNsRatio:    3.0,
		MaxAllocRatio: 1.25,
		AllocSlack:    4,
		MinSpeedups: map[string]float64{
			// Amortized lock acquisition: algorithmic, holds on any
			// machine.
			"msgbus_batch_speedup": 1.3,
			// Virtual-clock ratios: deterministic by construction, so
			// the floors sit just under the designed values. A delta
			// fetch must move far fewer bytes (and cost far less) than
			// the faithful whole-image arm, and a replayed restore must
			// beat demand paging.
			"restore_delta_speedup":     5.0,
			"restore_delta_bytes_ratio": 5.0,
			"prefetch_replay_speedup":   1.1,
			// Declarative DAG execution vs the hand-wired invoke()
			// chain, in virtual time: near-parity by design (~1.0). The
			// floor catches the engine growing a per-step virtual cost
			// the imperative chain does not pay.
			"workflow_chain_speedup": 0.9,
			// Tail sampling at keep-rate 0.05 over the 256-trace storm
			// keeps ~7 error traces plus ~5% probabilistic — the
			// exported bytes shrink >10x by construction; the floor
			// sits at the experiment's headline claim.
			"tail_sampling_reduction": 5.0,
		},
		MaxAllocs: map[string]float64{
			// Restore + dirty ~2,300 pages + stop allocates per page run
			// and per VM (33 measured). One allocation per 100 pages
			// would already break this.
			"BenchmarkDirtyStop": 48,
			// One request through the whole invoke path, its guest
			// factoring a 7-digit prime (~54k ops): 168-171 measured from
			// 20 to 8,000 iterations (the histogram windows' and rings'
			// amortized growth), nearly all of it outside the guest. The
			// per-invoke stage closures of a pipeline builder read
			// 190-193; the closure-threaded engine's per-call-depth frames
			// and step closures read 197-200; naming the invocation
			// instruments per request (62) and rebuilding the pure
			// builtins per revival (~34) read 298; boxing one intermediate
			// per loop iteration read 8,582.
			"BenchmarkFireworksInvoke": 172,
			// One Firecracker cold start: boot, runtime, loading the module
			// compiled at install, one fact run (102 measured). Re-parsing
			// and re-compiling the source per cold start read 381.
			"BenchmarkFirecrackerColdInvoke": 120,
			// One Fireworks install of a redeployed version: a parse of the
			// source and one of the driver, one compile, priming, JIT and
			// snapshot capture (455 measured, 49 KB). Parsing the source
			// twice and the annotated text twice more read 653 (85 KB).
			"BenchmarkFireworksInstall": 480,
			// hot(1000) in either tier of the one engine: the activation's
			// register file and the boxed result (2 measured). A second
			// allocation per activation reads 3, one per iteration 1,000+.
			"BenchmarkInterpreterTier": 4,
			"BenchmarkJITTier":         4,
			// compute-mix's guest programs, eight calls: the lists and boxed
			// ints the programs build and the natives' arguments, as
			// measured. The guest engine itself allocates one register
			// file per activation.
			"BenchmarkGuestComputeMix": 13609,
			// One request's telemetry step: the sampler reads bound
			// instruments in place and the window's blocks grow in place
			// (0 measured, amortized). A registry Snapshot per Sample read
			// 92.
			"BenchmarkSamplerSample/fill=1k":  8,
			"BenchmarkSamplerSample/fill=64k": 8,
		},
		Counted: map[string][]string{
			"BenchmarkFireworksInvoke":       {"ns_virtual/op", "guest_ops/op"},
			"BenchmarkFirecrackerColdInvoke": {"ns_virtual/op"},
			"BenchmarkGuestComputeMix":       {"guest_ops/op", "ns_virtual/guest_op"},
			// Whether a full window costs what a near-empty one does is a
			// count, not a timing: the blocks a rank lookup steps over and
			// the samples an observe moves are bounded by blockCap, and a
			// per-sample copy, sort or shift of the window multiplies them.
			"BenchmarkSamplerSample/fill=1k":  samplerCounts,
			"BenchmarkSamplerSample/fill=64k": samplerCounts,
		},
	}
}

// Violation is one gate failure.
type Violation struct {
	Name   string
	Detail string
}

func (v Violation) String() string { return v.Name + ": " + v.Detail }

// compare checks a fresh report against the committed baseline. Only
// gated manifest entries participate. A gated benchmark missing from
// either report is itself a violation — silently dropping a benchmark
// must not pass the gate.
func compare(baseline, fresh *Report, tol Tolerances) []Violation {
	var vs []Violation
	for _, e := range manifest {
		if !e.Gate {
			continue
		}
		bb, fb := baseline.result(e.Name), fresh.result(e.Name)
		if bb == nil {
			vs = append(vs, Violation{e.Name, "missing from baseline (regenerate with -write)"})
			continue
		}
		if fb == nil {
			vs = append(vs, Violation{e.Name, "missing from fresh run"})
			continue
		}
		if bb.NsPerOp > 0 && fb.NsPerOp > tol.MaxNsRatio*bb.NsPerOp {
			vs = append(vs, Violation{e.Name, fmt.Sprintf(
				"ns/op regressed: %.0f -> %.0f (> %.2gx baseline)",
				bb.NsPerOp, fb.NsPerOp, tol.MaxNsRatio)})
		}
		if allowed := (bb.AllocsOp + tol.AllocSlack) * tol.MaxAllocRatio; fb.AllocsOp > allowed {
			vs = append(vs, Violation{e.Name, fmt.Sprintf(
				"allocs/op regressed: %.0f -> %.0f (> %.0f allowed)",
				bb.AllocsOp, fb.AllocsOp, allowed)})
		} else if (fb.AllocsOp+tol.AllocSlack)*tol.MaxAllocRatio < bb.AllocsOp {
			vs = append(vs, Violation{e.Name, fmt.Sprintf(
				"allocs/op fell below the band: %.0f -> %.0f; re-record the baseline",
				bb.AllocsOp, fb.AllocsOp)})
		}
	}
	for _, name := range sortedKeys(tol.MaxAllocs) {
		if fb := fresh.result(name); fb != nil && fb.AllocsOp > tol.MaxAllocs[name] {
			vs = append(vs, Violation{name, fmt.Sprintf(
				"allocs/op over its ceiling: %.0f, want <= %.0f", fb.AllocsOp, tol.MaxAllocs[name])})
		}
	}
	for _, name := range sortedKeys(tol.Counted) {
		bb, fb := baseline.result(name), fresh.result(name)
		if bb == nil || fb == nil {
			continue // reported above if gated
		}
		for _, unit := range tol.Counted[name] {
			want, inBase := bb.Custom[unit]
			got, inFresh := fb.Custom[unit]
			if !inBase || !inFresh || got != want {
				vs = append(vs, Violation{name, fmt.Sprintf(
					"counted %s changed: %v -> %v, want equal", unit, want, got)})
			}
		}
	}
	for _, k := range sortedKeys(tol.MinSpeedups) {
		got, ok := fresh.Derived[k]
		if !ok {
			vs = append(vs, Violation{k, "derived ratio missing from fresh run"})
			continue
		}
		if min := tol.MinSpeedups[k]; got < min {
			vs = append(vs, Violation{k, fmt.Sprintf("%.2fx, want >= %.2fx", got, min)})
		}
	}
	return vs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
