// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation as Go benchmarks (one per artifact), plus
// fine-grained microbenchmarks of the paths the paper's claims rest on:
// snapshot restore vs cold boot, interpreter vs JIT execution, and CoW
// page accounting.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report virtual-time metrics (ns_virtual/op
// style custom metrics) alongside wall-clock numbers; the printed
// figures themselves come from `go run ./cmd/fwbench -run all`.
package repro_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/insight"
	"repro/internal/lang"
	"repro/internal/lang/bytecode"
	"repro/internal/lang/jit"
	"repro/internal/lang/vm"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/msgbus"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
	"repro/internal/vclock"
	"repro/internal/vmm"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// benchExperiment runs one full experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Checks {
			if !c.Pass {
				b.Fatalf("%s: shape check %q failed (paper %s, measured %s)",
					id, c.Name, c.Expected, c.Measured)
			}
		}
	}
}

// --- One benchmark per table/figure (deliverable d) ---

func BenchmarkTable1Matrix(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2Workloads(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkSnapshotCreation(b *testing.B)   { benchExperiment(b, "snaptime") }
func BenchmarkFig6NodeFaaSdom(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7PythonFaaSdom(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig9RealWorld(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10Consolidation(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11FactorPerf(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12FactorMemory(b *testing.B)  { benchExperiment(b, "fig12") }

// Extension experiments (beyond the paper's figures).
func BenchmarkWildTrace(b *testing.B)          { benchExperiment(b, "wild") }
func BenchmarkAblationREAP(b *testing.B)       { benchExperiment(b, "reap") }
func BenchmarkAblationSnapBudget(b *testing.B) { benchExperiment(b, "snapbudget") }
func BenchmarkAblationDeopt(b *testing.B)      { benchExperiment(b, "deopt") }
func BenchmarkClusterScale(b *testing.B)       { benchExperiment(b, "scale") }

// --- Microbenchmarks of the mechanisms under the figures ---

// BenchmarkFireworksInvoke measures the full Fireworks invoke path
// (queue produce, snapshot restore, netns setup, param fetch, JITted
// execution) and reports the virtual latency as a custom metric.
func BenchmarkFireworksInvoke(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	b.ResetTimer()
	var virtual int64
	for i := 0; i < b.N; i++ {
		inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		virtual += int64(inv.Breakdown.Total())
	}
	b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
}

// BenchmarkFireworksWarmResumeInvoke measures the opt-in warm-pool
// path: after the first request seeds the pool, every iteration
// warm-resumes the same paused clone instead of restoring the snapshot
// — the direct comparison point for BenchmarkFireworksInvoke's
// restore-per-request default.
func BenchmarkFireworksWarmResumeInvoke(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{WarmPool: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	// Seed the pool so every timed iteration hits the warm path.
	if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var virtual int64
	for i := 0; i < b.N; i++ {
		inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		virtual += int64(inv.Breakdown.Total())
	}
	b.StopTimer()
	if got := env.Metrics.Counter("fireworks_warm_resume_total").Value(); got < int64(b.N) {
		b.Fatalf("warm resumes = %d, want >= %d (pool missed)", got, b.N)
	}
	b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
}

// BenchmarkFirecrackerColdInvoke is the baseline the 133x claim is
// measured against.
func BenchmarkFirecrackerColdInvoke(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	p := platform.NewFirecracker(env, platform.FCNoSnapshot)
	w := workloads.Fact(runtime.LangNode)
	if _, err := p.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	b.ResetTimer()
	var virtual int64
	for i := 0; i < b.N; i++ {
		inv, err := p.Invoke(w.Name, params, platform.InvokeOptions{Mode: platform.ModeCold})
		if err != nil {
			b.Fatal(err)
		}
		virtual += int64(inv.Breakdown.Total())
		b.StopTimer()
		if err := p.Remove(w.Name); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Install(w.Function); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
}

// BenchmarkInterpreterTier and BenchmarkJITTier run the same hot loop
// in each tier of the one FaaSLang engine (real wall-clock speed of the
// simulator itself); they differ only in the tier the ops are charged to.
const hotLoopSrc = `
func hot(n) {
  let total = 0;
  let i = 0;
  while (i < n) {
    total = total + i * i;
    i = i + 1;
  }
  return total;
}
`

func setupTier(b *testing.B, compiled bool) (*vm.VM, *bytecode.Closure) {
	b.Helper()
	mod, err := bytecode.CompileSource(hotLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	v := vm.New(nil)
	engine := jit.NewEngine(jit.Config{})
	v.JIT = engine
	if _, err := v.RunModule(mod); err != nil {
		b.Fatal(err)
	}
	cl := v.Globals["hot"].(*bytecode.Closure)
	if compiled {
		engine.Compile(cl.Fn, nil)
	}
	return v, cl
}

func BenchmarkInterpreterTier(b *testing.B) {
	v, cl := setupTier(b, false)
	args := []lang.Value{int64(1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.CallValue(cl, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJITTier(b *testing.B) {
	v, cl := setupTier(b, true)
	args := []lang.Value{int64(1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.CallValue(cl, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore isolates the hypervisor restore path.
func BenchmarkSnapshotRestore(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	w := workloads.NetLatency(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	snap, err := env.Snaps.Get(w.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := vclock.New()
		vm_, err := env.HV.Restore(snap, vmm.RestoreOptions{}, clock)
		if err != nil {
			b.Fatal(err)
		}
		if err := vm_.Stop(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirtyStop isolates the memory bookkeeping of one request
// around the guest's execution: restore a clone of a Node.js snapshot,
// CoW-split the heap and JIT-code pages one invocation writes (about
// 2,300 pages), stop the VM so the space is freed. The cost must follow
// the handful of page runs involved, not the pages — benchgate holds the
// allocation count under an absolute ceiling no per-page structure fits.
func BenchmarkDirtyStop(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	snap, err := env.Snaps.Get(w.Name)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := runtime.NewFromSnapshot(snap.GuestState.(*runtime.SnapshotTemplate), vclock.New())
	if err != nil {
		b.Fatal(err)
	}
	heap, code := rt.Model.HeapPerInvokeBytes, rt.JITCodeBytes()
	faults := env.Metrics.Counter("mem_cow_faults_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm_, err := env.HV.Restore(snap, vmm.RestoreOptions{}, vclock.New())
		if err != nil {
			b.Fatal(err)
		}
		vm_.DirtyKind(mem.KindHeap, heap)
		vm_.DirtyKind(mem.KindJITCode, code)
		if err := vm_.Stop(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := faults.Value(), int64(b.N)*int64(mem.PagesFor(heap)); got < want {
		b.Fatalf("%d CoW faults over %d iterations, want at least the %d heap pages each", got, b.N, mem.PagesFor(heap))
	}
}

// BenchmarkRestoreDelta measures pulling an evicted image back from
// remote storage two ways: "flat" is the faithful pre-chunking arm
// (no local pool to delta against — every byte of the image moves, as
// the store did before content addressing), "delta" transfers only the
// chunks missing from the local pool, which still holds the shared
// base-runtime image. Both report the deterministic virtual fetch cost
// and the bytes moved; benchgate derives the speedup and bytes ratio.
func BenchmarkRestoreDelta(b *testing.B) {
	w := workloads.NetLatency(runtime.LangNode)
	setup := func(b *testing.B) *platform.Env {
		b.Helper()
		env := platform.NewEnv(platform.EnvConfig{RemoteSnapshotStorage: true})
		fw := core.New(env, core.Options{})
		if _, err := fw.Install(w.Function); err != nil {
			b.Fatal(err)
		}
		// Evict the function image; the shared base stays resident.
		env.Snaps.Remove(w.Name)
		return env
	}
	b.Run("flat", func(b *testing.B) {
		env := setup(b)
		var virtual int64
		var moved uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock := vclock.New()
			snap, err := env.RemoteSnaps.Fetch(w.Name, clock)
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(clock.Now())
			moved = snap.TotalBytes()
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
		b.ReportMetric(float64(moved), "vbytes/op")
	})
	b.Run("delta", func(b *testing.B) {
		env := setup(b)
		var virtual int64
		var moved uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock := vclock.New()
			snap, err := env.RemoteSnaps.FetchTraced(w.Name, env.Snaps, clock, nil)
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(clock.Now())
			moved = chunk.BytesOf(env.Snaps.MissingChunks(snap.Manifest().Chunks()))
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
		b.ReportMetric(float64(moved), "vbytes/op")
	})
}

// BenchmarkPrefetchReplay measures the hypervisor restore path with and
// without a recorded working set: "demand" pages the resident set in
// fault by fault, "replay" prefetches the chunks and pages the first
// restore recorded (REAP's record-and-replay applied to post-JIT
// snapshots). Virtual restore cost is deterministic; benchgate derives
// the replay speedup.
func BenchmarkPrefetchReplay(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{REAPPrefetch: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		b.Fatal(err)
	}
	// The first invoke demand-pages and records the working set.
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
		b.Fatal(err)
	}
	snap, err := env.Snaps.Get(w.Name)
	if err != nil {
		b.Fatal(err)
	}
	rec := snap.WorkingSet()
	if rec == nil {
		b.Fatal("first invoke left no working-set record")
	}
	restore := func(b *testing.B, opts vmm.RestoreOptions) {
		b.Helper()
		var virtual int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock := vclock.New()
			v, err := env.HV.Restore(snap, opts, clock)
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(clock.Now())
			b.StopTimer()
			if err := v.Stop(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
	}
	b.Run("demand", func(b *testing.B) { restore(b, vmm.RestoreOptions{}) })
	b.Run("replay", func(b *testing.B) { restore(b, vmm.RestoreOptions{Prefetch: rec}) })
}

// BenchmarkPSSAccounting stresses the page-sharing arithmetic behind
// Figures 10 and 12: map + dirty + PSS over many spaces.
func BenchmarkPSSAccounting(b *testing.B) {
	env := platform.NewEnv(platform.EnvConfig{})
	region := env.Mem.NewRegion("bench", "heap", 4096)
	spaces := make([]spaceLike, 0, 64)
	for i := 0; i < 64; i++ {
		s := env.Mem.NewSpace("s")
		s.MapRegion(region)
		s.DirtyPages(region, i*8)
		spaces = append(spaces, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, s := range spaces {
			sum += s.PSS()
		}
		if sum <= 0 {
			b.Fatal("no PSS")
		}
	}
}

type spaceLike interface{ PSS() float64 }

// --- Harness contention benchmarks ---
//
// These stress the simulator's own hot paths under b.RunParallel: the
// registry's name lookups and the journal's trace appends. cmd/benchgate
// gates their ns/op band and allocs/op, so a refactor that puts a lock
// or an allocation on either path fails CI.

// BenchmarkMetricsParallel hammers registry lookups the way a fleet of
// nodes does — per-node labeled counters and histograms resolved by
// name on every operation.
func BenchmarkMetricsParallel(b *testing.B) {
	const nodes = 64
	counterNames := make([]string, nodes)
	histNames := make([]string, nodes)
	for i := range counterNames {
		node := fmt.Sprintf("node-%02d", i)
		counterNames[i] = metrics.Name("cluster_node_invocations_total", "node", node)
		histNames[i] = metrics.Name("cluster_place_duration", "node", node)
	}
	reg := metrics.NewRegistry()
	for i := range counterNames {
		reg.Counter(counterNames[i]).Inc()
		reg.Histogram(histNames[i]).ObserveDuration(time.Microsecond)
	}
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(gid.Add(1)) * 7919 // spread goroutines across names
		for pb.Next() {
			reg.Counter(counterNames[i%nodes]).Inc()
			reg.Gauge(counterNames[(i+1)%nodes]).Add(1)
			if i%8 == 0 {
				reg.Histogram(histNames[i%nodes]).ObserveDuration(time.Duration(i))
			}
			i++
		}
	})
}

// BenchmarkSamplerSample is one request's telemetry step — observe into
// every latency histogram, then Sampler.Sample — with the histograms'
// raw-sample windows holding 1k and 64k observations. A window is
// ordered as it is written, so neither the observe (insert, and at 64k
// an evict) nor the four quantiles Sample reads per histogram may grow
// with what the window holds: benchgate caps the 64k ÷ 1k ratio.
func BenchmarkSamplerSample(b *testing.B) {
	for _, fill := range []struct {
		name string
		n    int
	}{{"fill=1k", 1 << 10}, {"fill=64k", 1 << 16}} {
		b.Run(fill.name, func(b *testing.B) {
			reg := metrics.NewRegistry()
			hists := make([]*metrics.Histogram, 8)
			for i := range hists {
				node := fmt.Sprintf("node-%02d", i)
				hists[i] = reg.Histogram(metrics.Name("invoke_latency", "node", node))
				reg.Counter(metrics.Name("cluster_node_invocations_total", "node", node)).Inc()
				reg.Gauge(metrics.Name("cluster_node_inflight", "node", node)).Set(1)
			}
			// A seeded latency-like spread: many distinct values, some ties.
			rng := uint64(1)
			next := func() time.Duration {
				rng = rng*6364136223846793005 + 1442695040888963407
				return time.Duration(rng>>44) * time.Microsecond
			}
			for i := 0; i < fill.n; i++ {
				for _, h := range hists {
					h.ObserveDuration(next())
				}
			}
			s := timeseries.NewSampler(reg, timeseries.DefaultCapacity)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, h := range hists {
					h.ObserveDuration(next())
				}
				s.Sample(time.Duration(i) * time.Millisecond)
			}
		})
	}
}

// BenchmarkMsgbusBatch compares the per-record produce/consume path
// against the batched API on the same 64-record workload: one topic
// per iteration (the invoke path's per-instance topic lifecycle),
// 64 records in, 64 records out.
func BenchmarkMsgbusBatch(b *testing.B) {
	const batch = 64
	value := []byte(`{"n":9999991,"rounds":1}`)
	b.Run("single", func(b *testing.B) {
		broker := msgbus.NewBroker()
		for i := 0; i < b.N; i++ {
			if err := broker.CreateTopic("t", 1); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < batch; k++ {
				if _, _, err := broker.ProduceAt("t", "k", value, time.Duration(k)); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < batch; k++ {
				if _, err := broker.ConsumeAt("t", 0, int64(k)); err != nil {
					b.Fatal(err)
				}
			}
			broker.DeleteTopic("t")
		}
		b.ReportMetric(float64(batch), "records/op")
	})
	b.Run("batch", func(b *testing.B) {
		broker := msgbus.NewBroker()
		recs := make([]msgbus.BatchRecord, batch)
		for k := range recs {
			recs[k] = msgbus.BatchRecord{Key: "k", Value: value}
		}
		for i := 0; i < b.N; i++ {
			if err := broker.CreateTopic("t", 1); err != nil {
				b.Fatal(err)
			}
			if _, err := broker.ProduceBatchAt("t", recs, 0); err != nil {
				b.Fatal(err)
			}
			if msgs, err := broker.ConsumeFrom("t", 0, 0, batch); err != nil || len(msgs) != batch {
				b.Fatalf("consumed %d, err %v", len(msgs), err)
			}
			broker.DeleteTopic("t")
		}
		b.ReportMetric(float64(batch), "records/op")
	})
}

// BenchmarkWorkflowChain compares the hand-wired Alexa chain (the
// frontend function dispatching to a skill via nested invoke()) against
// the same two-function chain run declaratively by the workflow engine
// (classifier step, conditional branch, bus-delivered step messages).
// Both arms report the deterministic virtual end-to-end latency;
// benchgate derives workflow_chain_speedup (hand-wired ÷ declarative)
// and floors it — the declarative engine must stay in the same virtual
// cost envelope as the imperative chain it replaces.
func BenchmarkWorkflowChain(b *testing.B) {
	req := map[string]any{"text": "alexa tell me a fun fact"}
	b.Run("handwired", func(b *testing.B) {
		env := platform.NewEnv(platform.EnvConfig{})
		fw := core.New(env, core.Options{})
		apps := workloads.AlexaSkills()
		for i := len(apps) - 1; i >= 0; i-- {
			if _, err := fw.Install(apps[i].Function); err != nil {
				b.Fatal(err)
			}
		}
		params := platform.MustParams(req)
		var virtual int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inv, err := fw.Invoke(workloads.NameAlexaFrontend, params, platform.InvokeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			virtual += int64(inv.Breakdown.Total())
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
	})
	b.Run("declarative", func(b *testing.B) {
		env := platform.NewEnv(platform.EnvConfig{})
		fw := core.New(env, core.Options{})
		apps := append(workloads.AlexaSkills(), workloads.WorkflowFunctions()...)
		for i := len(apps) - 1; i >= 0; i-- {
			if _, err := fw.Install(apps[i].Function); err != nil {
				b.Fatal(err)
			}
		}
		eng := workflow.New(env.Bus, env.Events, env.Metrics, fw, workflow.Options{})
		if err := eng.Register(workloads.AlexaWorkflow()); err != nil {
			b.Fatal(err)
		}
		var virtual int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run, err := eng.Run("alexa", req, 0)
			if err != nil {
				b.Fatal(err)
			}
			if run.Status != workflow.RunCompleted {
				b.Fatalf("run status %q", run.Status)
			}
			virtual += int64(run.Invocation.Breakdown.Total())
		}
		b.ReportMetric(float64(virtual)/float64(b.N), "ns_virtual/op")
	})
}

// --- Insight engine (critical-path analysis cost) ---

// benchInsightJournal builds a deterministic synthetic journal of just
// over 10k events: invocation-shaped traces (gateway → cluster → core →
// six stages, one bus instant) with varied stage costs.
func benchInsightJournal() []events.Event {
	j := events.NewJournal(0)
	ts := time.Duration(0)
	const traces = 530 // 19 events each → ~10k
	for i := 0; i < traces; i++ {
		sc := j.NewScope("gateway", "POST /invoke", ts)
		sc.Begin("cluster", "request", ts)
		sc.SetNode(fmt.Sprintf("node-%02d", i%3))
		sc.Begin("core", "invoke", ts)
		for _, stage := range []string{"snapshot-get", "restore-or-reuse", "netns", "runtime-revive", "execute", "release"} {
			sc.Begin("core", stage, ts)
			ts += time.Duration(50+i%97) * time.Microsecond
			if stage == "execute" {
				sc.Instant("msgbus", "produce", ts, events.A("topic", "bench"))
			}
			sc.End(ts)
		}
		sc.End(ts)
		sc.End(ts)
		sc.Close(ts)
	}
	return j.Events()
}

// BenchmarkCriticalPath measures full insight analysis — span-tree
// reconstruction, critical paths, blame tables, and the service graph —
// over a 10k-event journal.
func BenchmarkCriticalPath(b *testing.B) {
	evs := benchInsightJournal()
	var traces int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := insight.Analyze(evs)
		traces = rep.TraceCount
	}
	b.ReportMetric(float64(len(evs)), "events/op")
	if traces != 530 {
		b.Fatalf("analyzed %d traces, want 530", traces)
	}
}

// benchStormJournal replays a deterministic storm of 256 small traces
// into j: one root scope and one child span each, an error attr on
// every 37th trace, identical per-trace latencies so the tail
// sampler's latency-outlier policy stays quiet and only the error and
// probabilistic policies decide keeps.
func benchStormJournal(j *events.Journal) {
	var ts time.Duration
	for i := 0; i < 256; i++ {
		sc := j.NewScope("gateway", "invoke", ts, events.A("fn", "bench"))
		sc.SetNode(fmt.Sprintf("node-%d", i%4))
		sc.Begin("core", "execute", ts)
		ts += 120 * time.Microsecond
		if i%37 == 0 {
			sc.Instant("core", "result", ts, events.A("error", "boom"))
		}
		sc.End(ts)
		sc.Close(ts)
		ts += 10 * time.Microsecond
	}
}

// BenchmarkTailSampling exports the storm journal as NDJSON with and
// without the tail sampler armed, reporting the export size as
// vbytes/op. benchgate derives tail_sampling_reduction = full/sampled
// and enforces the >=5x byte-reduction claim of the telem experiment
// at microbenchmark granularity.
func BenchmarkTailSampling(b *testing.B) {
	run := func(b *testing.B, armed bool) {
		var exported int
		for i := 0; i < b.N; i++ {
			j := events.NewJournal(1 << 15)
			var tail *telemetry.TailSampler
			if armed {
				tail = telemetry.New(telemetry.Config{Seed: 1, KeepRate: 0.05})
				tail.Attach(j, metrics.NewRegistry())
			}
			benchStormJournal(j)
			if tail != nil {
				tail.FlushAll()
				if st := tail.Stats(); st.DecidedTraces != 256 {
					b.Fatalf("decided %d traces, want 256", st.DecidedTraces)
				}
			}
			var buf bytes.Buffer
			if err := events.WriteNDJSON(&buf, j.Events()); err != nil {
				b.Fatal(err)
			}
			exported = buf.Len()
		}
		if exported == 0 {
			b.Fatal("empty export")
		}
		b.ReportMetric(float64(exported), "vbytes/op")
	}
	b.Run("full", func(b *testing.B) { run(b, false) })
	b.Run("sampled", func(b *testing.B) { run(b, true) })
}
