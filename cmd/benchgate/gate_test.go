package main

import (
	"strings"
	"testing"
)

// sampleReport builds a healthy report covering every gated manifest
// entry, with derived ratios above their floors.
func sampleReport() *Report {
	r := &Report{Benchtime: "1s"}
	for _, e := range manifest {
		if !e.Gate {
			continue
		}
		r.Results = append(r.Results, BenchResult{
			Name: e.Name, Iterations: 1000, NsPerOp: 1000, AllocsOp: 10, BytesOp: 256,
		})
	}
	// Make the ratio numerator slower than its denominator so the
	// derived speedup clears its floor.
	r.result("BenchmarkMsgbusBatch/single").NsPerOp = 1700
	// The content-addressed store ratios derive from virtual-clock
	// custom metrics, not wall-clock ns/op.
	r.result("BenchmarkRestoreDelta/flat").Custom = map[string]float64{"ns_virtual/op": 190e6, "vbytes/op": 230e6}
	r.result("BenchmarkRestoreDelta/delta").Custom = map[string]float64{"ns_virtual/op": 13e6, "vbytes/op": 10e6}
	r.result("BenchmarkPrefetchReplay/demand").Custom = map[string]float64{"ns_virtual/op": 10.4e6}
	r.result("BenchmarkPrefetchReplay/replay").Custom = map[string]float64{"ns_virtual/op": 7.6e6}
	// The workflow chain ratio is near-parity by design.
	r.result("BenchmarkWorkflowChain/handwired").Custom = map[string]float64{"ns_virtual/op": 25e6}
	r.result("BenchmarkWorkflowChain/declarative").Custom = map[string]float64{"ns_virtual/op": 24.8e6}
	// Tail sampling shrinks the exported journal bytes >10x.
	r.result("BenchmarkTailSampling/full").Custom = map[string]float64{"vbytes/op": 1.11e5}
	r.result("BenchmarkTailSampling/sampled").Custom = map[string]float64{"vbytes/op": 9.2e3}
	// The telemetry step's counted work at both window fills.
	r.result("BenchmarkSamplerSample/fill=1k").Custom = map[string]float64{
		"blocks_stepped/sample": 44.86, "samples_moved/sample": 1196, "instruments/sample": 25}
	r.result("BenchmarkSamplerSample/fill=64k").Custom = map[string]float64{
		"blocks_stepped/sample": 1572, "samples_moved/sample": 2949, "instruments/sample": 25}
	r.result("BenchmarkSamplerSample/fill=1k").AllocsOp = 0
	r.result("BenchmarkSamplerSample/fill=64k").AllocsOp = 0
	// A guest call allocates its locals-and-stack buffer and a boxed
	// result, under the tiers' absolute ceilings.
	r.result("BenchmarkInterpreterTier").AllocsOp = 2
	r.result("BenchmarkJITTier").AllocsOp = 2
	// Counted metrics: the invokes' virtual latency, and the guest
	// benchmark's op count and virtual ns per op.
	r.result("BenchmarkFireworksInvoke").Custom = map[string]float64{"ns_virtual/op": 12598878, "guest_ops/op": 53825, "host_ns/guest_op": 5.8}
	r.result("BenchmarkFirecrackerColdInvoke").Custom = map[string]float64{"ns_virtual/op": 1512397274}
	r.result("BenchmarkGuestComputeMix").Custom = map[string]float64{"guest_ops/op": 2793072, "host_ns/guest_op": 4.1, "ns_virtual/guest_op": 22.9}
	derive(r)
	return r
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := sampleReport()
	fresh := sampleReport()
	if vs := compare(base, fresh, defaultTolerances()); len(vs) != 0 {
		t.Fatalf("identical reports should pass, got violations: %v", vs)
	}
}

// TestCompareFailsOnSyntheticRegression feeds the gate a fresh report
// with deliberately regressed numbers and requires it to fail — the
// gate's reason to exist.
func TestCompareFailsOnSyntheticRegression(t *testing.T) {
	base := sampleReport()

	t.Run("ns_per_op", func(t *testing.T) {
		fresh := sampleReport()
		fresh.result("BenchmarkFireworksInvoke").NsPerOp *= 10 // way past the 3x band
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "BenchmarkFireworksInvoke", "ns/op") {
			t.Fatalf("10x ns/op regression not caught: %v", vs)
		}
	})

	t.Run("allocs_per_op", func(t *testing.T) {
		fresh := sampleReport()
		fresh.result("BenchmarkSnapshotRestore").AllocsOp *= 3
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "BenchmarkSnapshotRestore", "allocs/op") {
			t.Fatalf("3x allocs/op regression not caught: %v", vs)
		}
	})

	t.Run("allocs_per_op_below_band", func(t *testing.T) {
		// A baseline that records far more allocations than the tree
		// does would let a regression back to its count pass.
		fresh := sampleReport()
		stale := sampleReport()
		stale.result("BenchmarkSnapshotRestore").AllocsOp = 3 * fresh.result("BenchmarkSnapshotRestore").AllocsOp
		vs := compare(stale, fresh, defaultTolerances())
		if !hasViolation(vs, "BenchmarkSnapshotRestore", "re-record the baseline") {
			t.Fatalf("allocs/op 3x below a stale baseline not caught: %v", vs)
		}
	})

	t.Run("allocs_per_op_edges_of_band", func(t *testing.T) {
		// Inside the band either way passes: (10+4)*1.25 = 17.5 above,
		// 40/1.25-4 = 28 below.
		tol := defaultTolerances()
		for _, c := range []struct{ base, fresh float64 }{{10, 17}, {40, 28}} {
			b, f := sampleReport(), sampleReport()
			b.result("BenchmarkSnapshotRestore").AllocsOp = c.base
			f.result("BenchmarkSnapshotRestore").AllocsOp = c.fresh
			if vs := compare(b, f, tol); len(vs) != 0 {
				t.Errorf("%v -> %v allocs/op is inside the band, got: %v", c.base, c.fresh, vs)
			}
		}
	})

	t.Run("speedup_collapse", func(t *testing.T) {
		// A refactor that loses the amortized lock acquisition shows up
		// as the batch arm slowing to the per-record arm.
		fresh := sampleReport()
		fresh.result("BenchmarkMsgbusBatch/batch").NsPerOp = fresh.result("BenchmarkMsgbusBatch/single").NsPerOp
		derive(fresh)
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "msgbus_batch_speedup", "want >=") {
			t.Fatalf("collapsed msgbus speedup not caught: %v", vs)
		}
	})

	t.Run("delta_fetch_collapse", func(t *testing.T) {
		// A regression that refetches the whole image (losing the chunk
		// delta) shows up as the delta arm's virtual cost and bytes
		// climbing to the flat arm's.
		fresh := sampleReport()
		flat := fresh.result("BenchmarkRestoreDelta/flat").Custom
		fresh.result("BenchmarkRestoreDelta/delta").Custom = map[string]float64{
			"ns_virtual/op": flat["ns_virtual/op"], "vbytes/op": flat["vbytes/op"]}
		derive(fresh)
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "restore_delta_speedup", "want >=") ||
			!hasViolation(vs, "restore_delta_bytes_ratio", "want >=") {
			t.Fatalf("collapsed delta fetch not caught: %v", vs)
		}
	})

	t.Run("prefetch_collapse", func(t *testing.T) {
		fresh := sampleReport()
		fresh.result("BenchmarkPrefetchReplay/replay").Custom["ns_virtual/op"] =
			fresh.result("BenchmarkPrefetchReplay/demand").Custom["ns_virtual/op"]
		derive(fresh)
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "prefetch_replay_speedup", "want >=") {
			t.Fatalf("collapsed prefetch speedup not caught: %v", vs)
		}
	})

	t.Run("tail_sampling_collapse", func(t *testing.T) {
		// A sampler that stops dropping traces exports as many bytes
		// as the unsampled arm.
		fresh := sampleReport()
		fresh.result("BenchmarkTailSampling/sampled").Custom["vbytes/op"] =
			fresh.result("BenchmarkTailSampling/full").Custom["vbytes/op"]
		derive(fresh)
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "tail_sampling_reduction", "want >=") {
			t.Fatalf("collapsed tail-sampling reduction not caught: %v", vs)
		}
	})

	t.Run("sampler_grows_with_fill", func(t *testing.T) {
		// A histogram window that is copied or sorted per sample moves
		// every sample it holds, and a rank walk from one end steps over
		// every block: the full window's counts multiply, whatever the
		// wall time reads.
		fresh := sampleReport()
		full := fresh.result("BenchmarkSamplerSample/fill=64k").Custom
		full["samples_moved/sample"] = 8 << 16
		full["blocks_stepped/sample"] *= 3
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "BenchmarkSamplerSample/fill=64k", "counted samples_moved/sample") ||
			!hasViolation(vs, "BenchmarkSamplerSample/fill=64k", "counted blocks_stepped/sample") {
			t.Fatalf("sampler work growing with window fill not caught: %v", vs)
		}
	})

	t.Run("sampler_snapshot_per_sample", func(t *testing.T) {
		// Building a registry Snapshot per Sample allocated 92 times per
		// step; the ceiling catches it even in a baseline that recorded
		// it.
		regressed := sampleReport()
		regressed.result("BenchmarkSamplerSample/fill=1k").AllocsOp = 92
		vs := compare(regressed, regressed, defaultTolerances())
		if !hasViolation(vs, "BenchmarkSamplerSample/fill=1k", "ceiling") {
			t.Fatalf("per-sample snapshot allocations not caught: %v", vs)
		}
	})

	t.Run("invoke_guest_ops_missing", func(t *testing.T) {
		// A benchmark that stops reporting a counted metric fails the
		// gate instead of passing it unchecked.
		fresh := sampleReport()
		delete(fresh.result("BenchmarkFireworksInvoke").Custom, "guest_ops/op")
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "BenchmarkFireworksInvoke", "counted guest_ops/op") {
			t.Fatalf("missing guest_ops/op not caught: %v", vs)
		}
	})

	t.Run("dirty_stop_allocs_ceiling", func(t *testing.T) {
		// Per-page bookkeeping shows as allocations per page. The
		// ceiling is absolute: it holds even against a baseline that
		// recorded the regression.
		regressed := sampleReport()
		regressed.result("BenchmarkDirtyStop").AllocsOp = 94
		vs := compare(regressed, regressed, defaultTolerances())
		if !hasViolation(vs, "BenchmarkDirtyStop", "ceiling") {
			t.Fatalf("allocs/op over the absolute ceiling not caught: %v", vs)
		}
	})

	// Every absolute ceiling bites one allocation above it, whatever the
	// baseline says.
	for name, ceiling := range defaultTolerances().MaxAllocs {
		t.Run("allocs_ceiling/"+name, func(t *testing.T) {
			regressed := sampleReport()
			regressed.result(name).AllocsOp = ceiling + 1
			vs := compare(regressed, regressed, defaultTolerances())
			if !hasViolation(vs, name, "ceiling") {
				t.Fatalf("%s at %v allocs/op not caught: %v", name, ceiling+1, vs)
			}
		})
	}

	// Every counted metric is exact: baseline+1 fails, whatever the
	// tolerances allow wall time and allocations.
	for name, units := range defaultTolerances().Counted {
		for _, unit := range units {
			t.Run("counted/"+name+"/"+unit, func(t *testing.T) {
				fresh := sampleReport()
				fresh.result(name).Custom[unit]++
				vs := compare(base, fresh, defaultTolerances())
				if !hasViolation(vs, name, "counted "+unit) {
					t.Fatalf("%s %s at baseline+1 not caught: %v", name, unit, vs)
				}
			})
		}
	}

	t.Run("missing_benchmark", func(t *testing.T) {
		fresh := sampleReport()
		keep := fresh.Results[:0]
		for _, b := range fresh.Results {
			if b.Name != "BenchmarkSnapshotRestore" {
				keep = append(keep, b)
			}
		}
		fresh.Results = keep
		vs := compare(base, fresh, defaultTolerances())
		if !hasViolation(vs, "BenchmarkSnapshotRestore", "missing") {
			t.Fatalf("dropped benchmark not caught: %v", vs)
		}
	})
}

// TestCompareToleratesHardwareDrift checks the band is wide enough for
// a slower CI machine: 2x wall-clock drift with identical allocation
// behavior must pass.
func TestCompareToleratesHardwareDrift(t *testing.T) {
	base := sampleReport()
	fresh := sampleReport()
	for i := range fresh.Results {
		fresh.Results[i].NsPerOp *= 2
	}
	derive(fresh) // ratios cancel the uniform slowdown
	if vs := compare(base, fresh, defaultTolerances()); len(vs) != 0 {
		t.Fatalf("uniform 2x slowdown should pass (ratios cancel), got: %v", vs)
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := `
goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFireworksInvoke 	      96	   3934138 ns/op	  12598878 ns_virtual/op	  388027 B/op	    8655 allocs/op
BenchmarkMetricsParallel-4      	10362654	        45.85 ns/op	       1 B/op	       0 allocs/op
BenchmarkMsgbusBatch/batch          	   28704	     11332 ns/op	        64.00 records/op	   25792 B/op	      85 allocs/op
PASS
ok  	repro	1.860s
`
	results := parseBenchOutput(out)
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	inv := results[0]
	if inv.Name != "BenchmarkFireworksInvoke" || inv.NsPerOp != 3934138 || inv.AllocsOp != 8655 {
		t.Errorf("bad invoke parse: %+v", inv)
	}
	if inv.Custom["ns_virtual/op"] != 12598878 {
		t.Errorf("custom metric lost: %+v", inv.Custom)
	}
	// The -4 GOMAXPROCS suffix must be stripped.
	if results[1].Name != "BenchmarkMetricsParallel" {
		t.Errorf("suffix not stripped: %q", results[1].Name)
	}
	if results[2].Custom["records/op"] != 64 {
		t.Errorf("records/op lost: %+v", results[2].Custom)
	}
}

func TestDerive(t *testing.T) {
	r := sampleReport()
	if got := r.Derived["sim_invokes_per_wall_sec"]; got != 1e9/1000 {
		t.Errorf("sim_invokes_per_wall_sec = %v, want 1e6", got)
	}
	if got := r.Derived["msgbus_batch_speedup"]; got != 1.7 {
		t.Errorf("msgbus_batch_speedup = %v, want 1.7", got)
	}
}

func TestGatedPattern(t *testing.T) {
	pat := gatedPattern(false)
	for _, want := range []string{"BenchmarkFireworksInvoke", "BenchmarkMetricsParallel", "BenchmarkMsgbusBatch"} {
		if !strings.Contains(pat, want) {
			t.Errorf("gated pattern missing %s: %s", want, pat)
		}
	}
	if strings.Contains(pat, "BenchmarkTable1Matrix") {
		t.Errorf("ungated benchmark in gated pattern: %s", pat)
	}
	if !strings.Contains(gatedPattern(true), "BenchmarkTable1Matrix") {
		t.Errorf("-all pattern missing ungated benchmark")
	}
	// Sub-benchmarks of one function must not repeat the function name.
	if n := strings.Count(pat, "BenchmarkMsgbusBatch"); n != 1 {
		t.Errorf("BenchmarkMsgbusBatch appears %d times in pattern", n)
	}
}

func hasViolation(vs []Violation, name, detail string) bool {
	for _, v := range vs {
		if v.Name == name && strings.Contains(v.Detail, detail) {
			return true
		}
	}
	return false
}
