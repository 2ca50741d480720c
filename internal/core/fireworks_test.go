package core_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/snapshot"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

func newFW(t *testing.T, opts core.Options) (*platform.Env, *core.Framework) {
	t.Helper()
	env := platform.NewEnv(platform.EnvConfig{})
	return env, core.New(env, opts)
}

// probeDeltaSizes installs both workloads into a throwaway unbounded
// env and measures, in chunk-pool bytes, the shared base-runtime image
// and each function's private delta. Budget-sensitive tests derive
// their store budgets from these instead of hardcoding image sizes:
// under content dedup the pool cost of a second same-language function
// is its delta, not another full image.
func probeDeltaSizes(t *testing.T, a, b platform.Function) (base, da, db uint64) {
	t.Helper()
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	if _, err := fw.Install(a); err != nil {
		t.Fatal(err)
	}
	u1 := env.Snaps.UsedBytes()
	baseSnap, err := env.Snaps.Get(core.BaseImageName(a.Lang))
	if err != nil {
		t.Fatal(err)
	}
	base = baseSnap.Manifest().UniqueBytes()
	da = u1 - base
	if _, err := fw.Install(b); err != nil {
		t.Fatal(err)
	}
	db = env.Snaps.UsedBytes() - u1
	if base == 0 || da == 0 || db == 0 {
		t.Fatalf("degenerate probe: base=%d da=%d db=%d", base, da, db)
	}
	return base, da, db
}

// oneDeltaBudget returns a store budget that admits the shared base
// image plus either function's delta, but not both deltas at once — the
// chunked-store analog of the old "budget fits one image at a time".
func oneDeltaBudget(t *testing.T, a, b platform.Function) uint64 {
	t.Helper()
	base, da, db := probeDeltaSizes(t, a, b)
	return base + da + db - 1
}

func TestInstallCreatesPostJITSnapshot(t *testing.T) {
	env, fw := newFW(t, core.Options{})
	w := workloads.Fact(runtime.LangPython)
	report, err := fw.Install(w.Function)
	if err != nil {
		t.Fatal(err)
	}
	if report.SnapshotBytes == 0 {
		t.Fatal("no snapshot bytes recorded")
	}
	if len(report.JITCompiled) == 0 {
		t.Fatal("install compiled nothing; post-JIT snapshot is empty of code")
	}
	if !env.Snaps.Has(w.Name) {
		t.Fatal("snapshot not in store")
	}
	if report.Duration <= 0 {
		t.Fatal("install charged no time")
	}
	// §5.1: snapshot creation (excluding package install / priming) is
	// sub-second; whole install includes pip and stays within seconds.
	if report.Duration > 30*time.Second {
		t.Fatalf("install took %v, implausible", report.Duration)
	}
	// Install must not leak the install VM.
	if env.HV.VMCount() != 0 {
		t.Fatalf("%d VMs alive after install", env.HV.VMCount())
	}
}

func TestInvokeResumesSnapshot(t *testing.T) {
	env, fw := newFW(t, core.Options{})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	inv, err := fw.Invoke(w.Name, platform.MustParams(map[string]any{"n": 101, "rounds": 3}), platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Result == nil {
		t.Fatal("no result")
	}
	if inv.Response == nil || inv.Response.Status != 200 {
		t.Fatalf("bad response: %+v", inv.Response)
	}
	if !strings.Contains(inv.Response.Body, "factored 3 ints") {
		t.Fatalf("unexpected body %q", inv.Response.Body)
	}
	// Start-up must be snapshot-scale (~12 ms), nowhere near a boot.
	if su := inv.Breakdown.Startup(); su > 50*time.Millisecond || su <= 0 {
		t.Fatalf("startup = %v, want ~12ms", su)
	}
	if inv.Breakdown.Exec() <= 0 {
		t.Fatal("no exec time recorded")
	}
	// Default: instances are torn down after the invocation.
	if env.HV.VMCount() != 0 {
		t.Fatalf("%d VMs alive after invoke", env.HV.VMCount())
	}
}

func TestInvokeUsesJITFromSnapshot(t *testing.T) {
	// The same workload on Fireworks (post-JIT) must execute
	// dramatically faster than a Python cold start on a baseline,
	// because the snapshot contains Numba-compiled code.
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	fc := platform.NewFirecracker(env, platform.FCNoSnapshot)
	w := workloads.Fact(runtime.LangPython)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 9999991, "rounds": 10})
	fwInv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fcInv, err := fc.Invoke(w.Name, params, platform.InvokeOptions{Mode: platform.ModeCold})
	if err != nil {
		t.Fatal(err)
	}
	if fwInv.Result != fcInv.Result {
		t.Fatalf("results differ: fireworks=%v firecracker=%v", fwInv.Result, fcInv.Result)
	}
	execRatio := float64(fcInv.Breakdown.Exec()) / float64(fwInv.Breakdown.Exec())
	if execRatio < 5 {
		t.Fatalf("python exec speedup = %.1fx, want >5x (interp vs Numba-JITted)", execRatio)
	}
	startRatio := float64(fcInv.Breakdown.Startup()) / float64(fwInv.Breakdown.Startup())
	if startRatio < 30 {
		t.Fatalf("startup speedup = %.1fx, want >30x (boot vs snapshot restore)", startRatio)
	}
}

// TestCloneIsolationViaNamespaces is §3.5 on the restore path: every
// clone of one snapshot wakes up with the snapshot's guest IP, and only
// its own namespace makes that legal.
func TestCloneIsolationViaNamespaces(t *testing.T) {
	env, fw := newFW(t, core.Options{RetainInstances: true})
	w := workloads.NetLatency(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	snap, err := env.Snaps.Get(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := fw.Invoke(w.Name, platform.MustParams(nil), platform.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	instances := fw.Instances(w.Name)
	if len(instances) != n || env.Router.NamespaceCount() != n {
		t.Fatalf("%d instances in %d namespaces, want %d in %d", len(instances), env.Router.NamespaceCount(), n, n)
	}
	names := map[string]bool{}
	for _, inst := range instances {
		ns := inst.VM.Namespace
		if names[ns.Name()] {
			t.Fatalf("two clones share namespace %s", ns.Name())
		}
		names[ns.Name()] = true
		// The clone's tap already holds the snapshot's guest IP: a
		// second device with that address is the conflict §3.5 avoids.
		err := env.Router.AttachTap(ns, &netsim.Tap{Name: "tap1", Guest: snap.GuestIP})
		if !errors.Is(err, netsim.ErrAddrConflict) {
			t.Fatalf("second tap with guest IP %s in %s: err = %v, want ErrAddrConflict", snap.GuestIP, ns.Name(), err)
		}
	}
	if err := fw.Remove(w.Name); err != nil {
		t.Fatal(err)
	}
	if c := env.Router.NamespaceCount(); c != 0 {
		t.Fatalf("%d namespaces alive after Remove", c)
	}
}

func TestRetainInstancesSharesMemory(t *testing.T) {
	env, fw := newFW(t, core.Options{RetainInstances: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 101, "rounds": 2})
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	instances := fw.Instances(w.Name)
	if len(instances) != n {
		t.Fatalf("retained %d instances, want %d", len(instances), n)
	}
	mapped := 0
	for _, l := range env.Mem.Report().Regions {
		if l.Sharers > 0 {
			mapped++
			if l.Sharers != n {
				t.Fatalf("snapshot region %s sharers = %d, want %d", l.Region, l.Sharers, n)
			}
		}
	}
	if mapped == 0 {
		t.Fatal("no snapshot region mapped")
	}
	// PSS of a sharing instance must be far below its RSS.
	sp := instances[0].VM.Space()
	if pss, rss := sp.PSS(), sp.RSS(); pss > 0.6*float64(rss) {
		t.Fatalf("PSS %.0f not much below RSS %d; snapshot pages not shared", pss, rss)
	}
	if err := fw.Remove(w.Name); err != nil {
		t.Fatal(err)
	}
	if env.HV.VMCount() != 0 {
		t.Fatalf("%d VMs alive after Remove", env.HV.VMCount())
	}
}

func TestFunctionChainsShareBreakdown(t *testing.T) {
	env, fw := newFW(t, core.Options{})
	_ = env
	for _, w := range workloads.AlexaSkills() {
		// Install skills before the frontend so priming chains resolve.
		defer func(name string) { _ = fw.Remove(name) }(w.Name)
	}
	apps := workloads.AlexaSkills()
	for i := len(apps) - 1; i >= 0; i-- { // skills first, frontend last
		if _, err := fw.Install(apps[i].Function); err != nil {
			t.Fatalf("install %s: %v", apps[i].Name, err)
		}
	}
	inv, err := fw.Invoke(workloads.NameAlexaFrontend,
		platform.MustParams(map[string]any{"text": "remind me about the dentist", "action": "add",
			"id": "d1", "item": "dentist", "place": "clinic", "url": "https://cal/d1"}),
		platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inv.Response.Body, "reminder") {
		t.Fatalf("frontend did not dispatch to reminder: %s", inv.Response.Body)
	}
	// The chain ran two functions; combined start-up covers two resumes.
	if inv.Breakdown.Startup() < 15*time.Millisecond {
		t.Fatalf("chain startup %v too small for two snapshot resumes", inv.Breakdown.Startup())
	}
}

func TestSnapshotEvictionSurfacesError(t *testing.T) {
	a := workloads.Fact(runtime.LangNode)
	b := workloads.NetLatency(runtime.LangNode)
	env := platform.NewEnv(platform.EnvConfig{
		SnapshotDiskBudget: oneDeltaBudget(t, a.Function, b.Function),
	})
	fw := core.New(env, core.Options{})
	if _, err := fw.Install(a.Function); err != nil {
		t.Fatal(err)
	}
	// Installing b evicts a: the budget fits the shared base image plus
	// one function delta, not two.
	if _, err := fw.Install(b.Function); err != nil {
		t.Fatal(err)
	}
	if env.Snaps.Evictions() == 0 {
		t.Fatal("no evictions under a tight budget")
	}
	_, err := fw.Invoke(a.Name, platform.MustParams(nil), platform.InvokeOptions{})
	if err == nil || !strings.Contains(err.Error(), "reinstall") {
		t.Fatalf("err = %v, want eviction error", err)
	}
	// Reinstall regenerates the snapshot and invocation works again.
	if _, err := fw.Install(a.Function); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Invoke(a.Name, platform.MustParams(map[string]any{"n": 35, "rounds": 1}), platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	// Many goroutines resume the same snapshot at once: unique fcIDs,
	// unique topics, isolated namespaces, correct results.
	env, fw := newFW(t, core.Options{})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	const parallel = 24
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	sandboxes := make(chan string, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			inv, err := fw.Invoke(w.Name,
				platform.MustParams(map[string]any{"n": 95 + n, "rounds": 1}),
				platform.InvokeOptions{})
			if err != nil {
				errs <- err
				return
			}
			if inv.Result == nil {
				errs <- fmt.Errorf("nil result")
				return
			}
			sandboxes <- inv.SandboxID
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	close(sandboxes)
	for err := range errs {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for id := range sandboxes {
		if seen[id] {
			t.Fatalf("sandbox %s served two invocations", id)
		}
		seen[id] = true
	}
	if env.HV.VMCount() != 0 {
		t.Fatalf("%d VMs leaked", env.HV.VMCount())
	}
	if env.Router.NamespaceCount() != 0 {
		t.Fatalf("%d namespaces leaked", env.Router.NamespaceCount())
	}
}

func TestRemoteStorageServesEvictedSnapshots(t *testing.T) {
	// §6 extension: with remote object storage behind the bounded local
	// store, an evicted snapshot costs a network fetch, not an error or
	// a reinstall — and with the content-addressed store, the fetch
	// moves only the function's delta: the base-runtime chunks are
	// still resident locally.
	a := workloads.Fact(runtime.LangNode)
	b := workloads.NetLatency(runtime.LangNode)
	env := platform.NewEnv(platform.EnvConfig{
		SnapshotDiskBudget:    oneDeltaBudget(t, a.Function, b.Function),
		RemoteSnapshotStorage: true,
	})
	fw := core.New(env, core.Options{})
	if _, err := fw.Install(a.Function); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Install(b.Function); err != nil {
		t.Fatal(err)
	}
	if env.Snaps.Has(a.Name) {
		t.Fatal("a should be locally evicted by b's install")
	}
	inv, err := fw.Invoke(a.Name, platform.MustParams(map[string]any{"n": 35, "rounds": 1}),
		platform.InvokeOptions{})
	if err != nil {
		t.Fatalf("evicted function failed despite remote storage: %v", err)
	}
	// The fetch shows up in start-up — but as a delta transfer (a few
	// MiB of function heap/JIT), well below the ~200 ms a full
	// ~230 MiB image would cost.
	if su := inv.Breakdown.Startup(); su < 15*time.Millisecond || su > 100*time.Millisecond {
		t.Fatalf("startup with delta remote fetch = %v, want tens of ms", su)
	}
	if env.RemoteSnaps.Fetches() != 1 {
		t.Fatalf("fetches = %d", env.RemoteSnaps.Fetches())
	}
	// The image is cached locally again: the next invoke is faster
	// still (no fetch)...
	inv2, err := fw.Invoke(a.Name, platform.MustParams(map[string]any{"n": 35, "rounds": 1}),
		platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inv2.Breakdown.Startup() > 50*time.Millisecond {
		t.Fatalf("second startup = %v, want local-resume speed", inv2.Breakdown.Startup())
	}
	if inv2.Breakdown.Startup() >= inv.Breakdown.Startup() {
		t.Fatalf("local resume %v not faster than fetch-assisted start %v",
			inv2.Breakdown.Startup(), inv.Breakdown.Startup())
	}
	// ...and b was evicted in turn, retrievable remotely as well.
	if _, err := fw.Invoke(b.Name, platform.MustParams(nil), platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	// Remove cleans the remote copy too.
	if err := fw.Remove(a.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := env.RemoteSnaps.Fetch(a.Name, nil, vclock.New()); !errors.Is(err, snapshot.ErrNotFound) {
		t.Fatalf("remote copy survived Remove: %v", err)
	}
}

func TestREAPPrefetchSpeedsRestore(t *testing.T) {
	// Record-and-prefetch semantics: the first restored invocation
	// demand-pages and records the working set; the second replays the
	// record with sequential reads and starts faster. A framework
	// without REAPPrefetch never records and every restore costs the
	// same.
	envA, fwA := newFW(t, core.Options{})
	envB, fwB := newFW(t, core.Options{REAPPrefetch: true})
	_ = envA
	w := workloads.NetLatency(runtime.LangNode)
	if _, err := fwA.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	if _, err := fwB.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	p := platform.MustParams(nil)
	a1, err := fwA.Invoke(w.Name, p, platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fwA.Invoke(w.Name, p, platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a2.Breakdown.Startup() != a1.Breakdown.Startup() {
		t.Fatalf("without REAP, startups differ: %v vs %v",
			a1.Breakdown.Startup(), a2.Breakdown.Startup())
	}
	b1, err := fwB.Invoke(w.Name, p, platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The first restore has no record yet: demand paging, same cost as
	// the non-REAP framework.
	if b1.Breakdown.Startup() != a1.Breakdown.Startup() {
		t.Fatalf("first REAP startup %v != demand-paged %v (record should not exist yet)",
			b1.Breakdown.Startup(), a1.Breakdown.Startup())
	}
	b2, err := fwB.Invoke(w.Name, p, platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b2.Breakdown.Startup() >= b1.Breakdown.Startup() {
		t.Fatalf("REAP replay startup %v not faster than recording run %v",
			b2.Breakdown.Startup(), b1.Breakdown.Startup())
	}
	if got := envB.Metrics.Counter("fireworks_prefetch_replays_total").Value(); got != 1 {
		t.Fatalf("fireworks_prefetch_replays_total = %d, want 1", got)
	}
}
