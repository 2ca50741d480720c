package main

import "strings"

// BenchEntry is one benchmark the gate knows about. Every Benchmark*
// function in the repo root's bench_test.go must be listed here — the
// manifest hygiene test (manifest_test.go) fails the build otherwise,
// so a new benchmark cannot be added without deciding whether the gate
// watches it.
type BenchEntry struct {
	// Name is the benchmark function name, or "Func/sub" for a
	// sub-benchmark run via b.Run.
	Name string
	// Gate marks the hot-path set: these run on every `benchgate`
	// invocation and are compared against the committed baseline.
	// Ungated entries are acknowledged (the manifest is the complete
	// inventory) but only run with -all.
	Gate bool
}

// manifest inventories every benchmark in bench_test.go. The gated
// subset is the simulator's own hot path — invocation, snapshot
// restore, and the contention benchmarks guarding the registry, the
// journal and the batched message bus.
var manifest = []BenchEntry{
	// Paper-figure experiment benchmarks: deterministic virtual-time
	// replays, tracked for inventory but not gated (each runs a whole
	// experiment; wall time is dominated by workload construction).
	{Name: "BenchmarkTable1Matrix"},
	{Name: "BenchmarkTable2Workloads"},
	{Name: "BenchmarkSnapshotCreation"},
	{Name: "BenchmarkFig6NodeFaaSdom"},
	{Name: "BenchmarkFig7PythonFaaSdom"},
	{Name: "BenchmarkFig9RealWorld"},
	{Name: "BenchmarkFig10Consolidation"},
	{Name: "BenchmarkFig11FactorPerf"},
	{Name: "BenchmarkFig12FactorMemory"},
	{Name: "BenchmarkWildTrace"},
	{Name: "BenchmarkAblationREAP"},
	{Name: "BenchmarkAblationSnapBudget"},
	{Name: "BenchmarkAblationDeopt"},
	{Name: "BenchmarkClusterScale"},

	// Hot-path microbenchmarks: gated.
	{Name: "BenchmarkFireworksInvoke", Gate: true},
	{Name: "BenchmarkFireworksWarmResumeInvoke", Gate: true},
	{Name: "BenchmarkFirecrackerColdInvoke"},
	// A 1,000-iteration integer loop in each FaaSLang tier: gated, with
	// an absolute allocs/op ceiling — guarded integer code boxes nothing.
	{Name: "BenchmarkInterpreterTier", Gate: true},
	{Name: "BenchmarkJITTier", Gate: true},
	{Name: "BenchmarkSnapshotRestore", Gate: true},
	{Name: "BenchmarkPSSAccounting"},
	// One request's CoW bookkeeping (restore, dirty, stop): gated, with
	// an absolute allocs/op ceiling — the cost follows page runs, not
	// pages.
	{Name: "BenchmarkDirtyStop", Gate: true},

	// Content-addressed store benchmarks: gated, including the derived
	// flat/delta fetch ratios (virtual time and bytes moved) and the
	// demand/replay restore speedup.
	{Name: "BenchmarkRestoreDelta/flat", Gate: true},
	{Name: "BenchmarkRestoreDelta/delta", Gate: true},
	{Name: "BenchmarkPrefetchReplay/demand", Gate: true},
	{Name: "BenchmarkPrefetchReplay/replay", Gate: true},

	// Harness contention benchmarks: gated, including the derived
	// batch/single speedup.
	{Name: "BenchmarkMetricsParallel", Gate: true},
	{Name: "BenchmarkMsgbusBatch/single", Gate: true},
	{Name: "BenchmarkMsgbusBatch/batch", Gate: true},
	// One request's telemetry step at two histogram-window fills: gated,
	// including the derived 64k/1k ratio — it must not cost more the
	// more history the windows hold.
	{Name: "BenchmarkSamplerSample/fill=1k", Gate: true},
	{Name: "BenchmarkSamplerSample/fill=64k", Gate: true},

	// Workflow engine: gated, including the derived hand-wired vs
	// declarative virtual-cost ratio (the engine's composition overhead
	// must stay in the imperative chain's envelope).
	{Name: "BenchmarkWorkflowChain/handwired", Gate: true},
	{Name: "BenchmarkWorkflowChain/declarative", Gate: true},

	// Insight engine: gated — critical-path analysis over a 10k-event
	// journal must stay cheap enough to run inside request handlers.
	{Name: "BenchmarkCriticalPath", Gate: true},

	// Telemetry plane: gated, including the derived full-vs-sampled
	// NDJSON byte ratio — the tail sampler must keep delivering the
	// >=5x journal reduction the telem experiment claims.
	{Name: "BenchmarkTailSampling/full", Gate: true},
	{Name: "BenchmarkTailSampling/sampled", Gate: true},
}

// gatedPattern returns the -bench regexp selecting the gated set (or
// every manifest entry with all=true).
func gatedPattern(all bool) string {
	seen := map[string]bool{}
	pat := "^("
	first := true
	for _, e := range manifest {
		if !e.Gate && !all {
			continue
		}
		top, _, _ := strings.Cut(e.Name, "/")
		if seen[top] {
			continue
		}
		seen[top] = true
		if !first {
			pat += "|"
		}
		pat += top
		first = false
	}
	return pat + ")$"
}
