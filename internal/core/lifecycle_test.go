package core_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// busTopics returns the broker's live topic count; Fireworks topics are
// per-invocation, so outside RetainInstances the steady state is zero.
func busTopics(env *platform.Env) int { return env.Bus.TopicCount() }

func TestWarmPoolReusesInstance(t *testing.T) {
	env, fw := newFW(t, core.Options{WarmPool: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 101, "rounds": 1})
	first, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fw.WarmCount(w.Name) != 1 {
		t.Fatalf("pool holds %d after first invoke, want 1", fw.WarmCount(w.Name))
	}
	if busTopics(env) != 0 {
		t.Fatalf("%d topics alive while instance pooled, want 0", busTopics(env))
	}
	second, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.SandboxID != first.SandboxID {
		t.Fatalf("pooled reuse changed sandbox: %s -> %s", first.SandboxID, second.SandboxID)
	}
	if second.Result != first.Result {
		t.Fatalf("results differ across reuse: %v vs %v", first.Result, second.Result)
	}
	if got := env.Metrics.Counter("fireworks_warm_resume_total").Value(); got != 1 {
		t.Fatalf("fireworks_warm_resume_total = %d, want 1", got)
	}
	if got := env.Metrics.Counter("vmm_warm_resumes_total").Value(); got != 1 {
		t.Fatalf("vmm_warm_resumes_total = %d, want 1", got)
	}
	hits := env.Metrics.Counter(metrics.Name("lifecycle_pool_hits_total", "platform", "fireworks"))
	if hits.Value() != 1 {
		t.Fatalf("pool hits = %d, want 1", hits.Value())
	}
	// The warm path skips restore and netns: only one namespace was ever
	// created and it is still held by the pooled VM.
	if env.Router.NamespaceCount() != 1 {
		t.Fatalf("namespaces = %d, want the pooled VM's 1", env.Router.NamespaceCount())
	}
	if err := fw.Remove(w.Name); err != nil {
		t.Fatal(err)
	}
	leakCheck(t, env)
	if busTopics(env) != 0 {
		t.Fatalf("%d topics alive after Remove", busTopics(env))
	}
}

func TestWarmPoolKeepAliveExpiry(t *testing.T) {
	env, fw := newFW(t, core.Options{WarmPool: true, PoolKeepAlive: 10 * time.Minute})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 101, "rounds": 1})
	if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{At: 0}); err != nil {
		t.Fatal(err)
	}
	if n := fw.ExpireIdle(5 * time.Minute); n != 0 {
		t.Fatalf("reaped %d within keep-alive, want 0", n)
	}
	if fw.WarmCount(w.Name) != 1 {
		t.Fatal("pooled VM gone before its keep-alive")
	}
	if n := fw.ExpireIdle(11 * time.Minute); n != 1 {
		t.Fatalf("reaped %d past keep-alive, want 1", n)
	}
	if fw.WarmCount(w.Name) != 0 {
		t.Fatal("expired VM still pooled")
	}
	leakCheck(t, env)
	// Acquire also expires lazily: a request far past the keep-alive
	// must restore fresh, not resume a stale VM.
	if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{At: 30 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{At: 55 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	_ = inv
	if got := env.Metrics.Counter("fireworks_warm_resume_total").Value(); got != 0 {
		t.Fatalf("stale pool entries served %d warm resumes", got)
	}
}

func TestWarmPoolCapacityBoundsResidency(t *testing.T) {
	env, fw := newFW(t, core.Options{WarmPool: true, PoolCapacity: 1})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	params := platform.MustParams(map[string]any{"n": 101, "rounds": 1})
	const parallel = 6
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if fw.WarmCount(w.Name) != 1 {
		t.Fatalf("pool holds %d, want capacity 1", fw.WarmCount(w.Name))
	}
	// Rejected releases were stopped, not leaked: only the pooled VM
	// remains live, and no per-invocation topic survived.
	if env.HV.VMCount() != 1 {
		t.Fatalf("VMs = %d, want the 1 pooled", env.HV.VMCount())
	}
	if busTopics(env) != 0 {
		t.Fatalf("%d topics leaked", busTopics(env))
	}
	if err := fw.Remove(w.Name); err != nil {
		t.Fatal(err)
	}
	leakCheck(t, env)
}

func TestWarmPoolCrashDropsPooledVM(t *testing.T) {
	env, fw := newFW(t, core.Options{WarmPool: true})
	if _, err := fw.Install(platform.Function{
		Name:          "crasher",
		Source:        `func main(params) { let x = params.d; return 1 / x; }`,
		Lang:          runtime.LangNode,
		DefaultParams: map[string]any{"d": 1},
	}); err != nil {
		t.Fatal(err)
	}
	// Seed the pool with a healthy run, then crash inside the pooled VM:
	// the pipeline unwind must stop it and delete the topic.
	if _, err := fw.Invoke("crasher", platform.MustParams(map[string]any{"d": 2}), platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	if fw.WarmCount("crasher") != 1 {
		t.Fatal("pool not seeded")
	}
	_, err := fw.Invoke("crasher", platform.MustParams(map[string]any{"d": 0}), platform.InvokeOptions{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
	if fw.WarmCount("crasher") != 0 {
		t.Fatal("crashed VM returned to the pool")
	}
	leakCheck(t, env)
	if busTopics(env) != 0 {
		t.Fatalf("%d topics leaked by crashed warm invoke", busTopics(env))
	}
	// The platform recovers with a fresh restore.
	if _, err := fw.Invoke("crasher", platform.MustParams(map[string]any{"d": 2}), platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
}

// assertFailedTraceClosed checks the journal's newest trace — the
// invocation that just failed: it must record the error, and every
// span it began must have ended.
func assertFailedTraceClosed(t *testing.T, env *platform.Env) {
	t.Helper()
	var last events.TraceID
	for _, e := range env.Events.Events() {
		if e.Trace > last {
			last = e.Trace
		}
	}
	open := map[events.SpanID]string{}
	errored := false
	for _, e := range env.Events.Trace(last) {
		switch e.Kind {
		case events.KindBegin:
			open[e.Span] = e.Component + ":" + e.Name
		case events.KindEnd:
			delete(open, e.Span)
			for _, a := range e.Attrs {
				errored = errored || a.Key == "error"
			}
		}
	}
	if !errored {
		t.Fatalf("newest trace %d records no error; not the failed invocation?", last)
	}
	for id, name := range open {
		t.Errorf("failed trace %d: span %d (%s) began but never ended", last, id, name)
	}
}

// TestFailedInvocationLeaksNothing proves the satellite fix: whatever
// stage an invocation dies in, no msgbus topic, no running microVM and
// no open journal span survives it.
func TestFailedInvocationLeaksNothing(t *testing.T) {
	t.Run("executeCrash", func(t *testing.T) {
		env, fw := newFW(t, core.Options{})
		if _, err := fw.Install(platform.Function{
			Name:          "crasher",
			Source:        `func main(params) { return 1 % params.m; }`,
			Lang:          runtime.LangNode,
			DefaultParams: map[string]any{"m": 1},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Invoke("crasher", platform.MustParams(map[string]any{"m": 0}), platform.InvokeOptions{}); err == nil {
			t.Fatal("crash survived")
		}
		assertFailedTraceClosed(t, env)
		leakCheck(t, env)
		if busTopics(env) != 0 {
			t.Fatalf("%d topics leaked by execute failure", busTopics(env))
		}
	})
	t.Run("netnsExhausted", func(t *testing.T) {
		// Two retained instances hold the only external IPs; the third
		// invocation fails at netns setup after its topic was created.
		env := platform.NewEnv(platform.EnvConfig{ExternalIPPool: 2})
		fw := core.New(env, core.Options{RetainInstances: true})
		w := workloads.NetLatency(runtime.LangNode)
		if _, err := fw.Install(w.Function); err != nil {
			t.Fatal(err)
		}
		params := platform.MustParams(nil)
		for i := 0; i < 2; i++ {
			if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err == nil {
			t.Fatal("third invoke got a namespace")
		}
		assertFailedTraceClosed(t, env)
		// Only the two retained instances' topics remain; the failed
		// invocation's topic and VM are gone.
		if busTopics(env) != 2 {
			t.Fatalf("topics = %d, want the 2 retained", busTopics(env))
		}
		if env.HV.VMCount() != 2 {
			t.Fatalf("VMs = %d, want the 2 retained", env.HV.VMCount())
		}
		if err := fw.StopInstances(w.Name); err != nil {
			t.Fatal(err)
		}
		leakCheck(t, env)
		if busTopics(env) != 0 {
			t.Fatalf("%d topics after StopInstances", busTopics(env))
		}
	})
	t.Run("snapshotEvicted", func(t *testing.T) {
		a := workloads.Fact(runtime.LangNode)
		b := workloads.NetLatency(runtime.LangNode)
		env := platform.NewEnv(platform.EnvConfig{
			SnapshotDiskBudget: oneDeltaBudget(t, a.Function, b.Function),
		})
		fw := core.New(env, core.Options{})
		if _, err := fw.Install(a.Function); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Install(b.Function); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Invoke(a.Name, platform.MustParams(nil), platform.InvokeOptions{}); err == nil {
			t.Fatal("evicted function invoked")
		}
		assertFailedTraceClosed(t, env)
		leakCheck(t, env)
		if busTopics(env) != 0 {
			t.Fatalf("%d topics leaked by snapshot-get failure", busTopics(env))
		}
	})
	t.Run("restoreFault", func(t *testing.T) {
		// An injected vm-restore fault with retries off fails the
		// pipeline inside the open vm-restore span.
		env, fw, plane := faultyEnv(t, faults.RetryPolicy{})
		w := workloads.Fact(runtime.LangNode)
		if _, err := fw.Install(w.Function); err != nil {
			t.Fatal(err)
		}
		plane.Enqueue(faults.SiteVMMRestore, faults.KindError)
		if _, err := fw.Invoke(w.Name, platform.MustParams(nil), platform.InvokeOptions{}); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("err = %v, want the injected fault", err)
		}
		assertFailedTraceClosed(t, env)
		leakCheck(t, env)
		if busTopics(env) != 0 {
			t.Fatalf("%d topics leaked by restore failure", busTopics(env))
		}
	})
}

// TestConcurrentWarmPoolInvocations is the -race regression test: many
// goroutines share one warm pool; reuse happens (hit counter > 0), no
// instance serves two invocations at once, and nothing leaks.
func TestConcurrentWarmPoolInvocations(t *testing.T) {
	env, fw := newFW(t, core.Options{WarmPool: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				inv, err := fw.Invoke(w.Name,
					platform.MustParams(map[string]any{"n": 95 + n, "rounds": 1}),
					platform.InvokeOptions{})
				if err != nil {
					errs <- err
					return
				}
				if inv.Result == nil {
					errs <- errors.New("nil result")
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := env.Metrics.Counter("fireworks_warm_resume_total").Value(); got == 0 {
		t.Fatal("concurrent invocations never reused the pool")
	}
	if busTopics(env) != 0 {
		t.Fatalf("%d topics leaked", busTopics(env))
	}
	// Every live VM is pooled (paused), none running.
	if env.HV.VMCount() != fw.WarmCount(w.Name) {
		t.Fatalf("VMs = %d but pool holds %d", env.HV.VMCount(), fw.WarmCount(w.Name))
	}
	if err := fw.Remove(w.Name); err != nil {
		t.Fatal(err)
	}
	leakCheck(t, env)
}

// TestConcurrentRetainInstances races parallel invokes with
// RetainInstances on: every invocation must retain exactly one live
// instance and keep its topic until StopInstances.
func TestConcurrentRetainInstances(t *testing.T) {
	env, fw := newFW(t, core.Options{RetainInstances: true})
	w := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	const parallel = 12
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			if _, err := fw.Invoke(w.Name,
				platform.MustParams(map[string]any{"n": 95 + n, "rounds": 1}),
				platform.InvokeOptions{}); err != nil {
				errs <- err
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(fw.Instances(w.Name)); got != parallel {
		t.Fatalf("retained %d instances, want %d", got, parallel)
	}
	if busTopics(env) != parallel {
		t.Fatalf("topics = %d, want one per retained instance", busTopics(env))
	}
	if err := fw.StopInstances(w.Name); err != nil {
		t.Fatal(err)
	}
	leakCheck(t, env)
	if busTopics(env) != 0 {
		t.Fatalf("%d topics after StopInstances", busTopics(env))
	}
}

// TestPinnedImageBlocksEvictionMidRestore: while an invocation holds a
// pin on its image (simulating a concurrent mid-restore), the remote
// re-fetch of another function cannot evict it — the Put fails with
// ErrAllPinned and the failed invocation leaks nothing. Releasing the
// pin lets the re-fetch succeed.
func TestPinnedImageBlocksEvictionMidRestore(t *testing.T) {
	a := workloads.Fact(runtime.LangNode)
	b := workloads.NetLatency(runtime.LangNode)
	env := platform.NewEnv(platform.EnvConfig{
		SnapshotDiskBudget:    oneDeltaBudget(t, a.Function, b.Function), // one delta at a time
		RemoteSnapshotStorage: true,
	})
	fw := core.New(env, core.Options{})
	if _, err := fw.Install(a.Function); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Install(b.Function); err != nil {
		t.Fatal(err)
	}
	// b's install evicted a locally; b is the only resident image. Pin
	// it the way a concurrent invocation mid-restore would.
	if err := env.Snaps.Pin(b.Name); err != nil {
		t.Fatal(err)
	}
	_, err := fw.Invoke(a.Name, platform.MustParams(map[string]any{"n": 35, "rounds": 1}), platform.InvokeOptions{})
	if !errors.Is(err, snapshot.ErrAllPinned) {
		t.Fatalf("err = %v, want ErrAllPinned", err)
	}
	leakCheck(t, env)
	if busTopics(env) != 0 {
		t.Fatalf("%d topics leaked", busTopics(env))
	}
	env.Snaps.Unpin(b.Name)
	if _, err := fw.Invoke(a.Name, platform.MustParams(map[string]any{"n": 35, "rounds": 1}), platform.InvokeOptions{}); err != nil {
		t.Fatalf("invoke after unpin: %v", err)
	}
	if env.RemoteSnaps.Fetches() < 2 {
		t.Fatalf("fetches = %d, want one per attempt", env.RemoteSnaps.Fetches())
	}
}

// TestConcurrentEvictionPressure thrashes two functions whose images
// cannot coexist locally, under -race: the only acceptable failure is
// ErrAllPinned (an in-use image cannot be evicted), and the host drains
// completely afterwards.
func TestConcurrentEvictionPressure(t *testing.T) {
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
	const workers = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for i := 0; i < workers; i++ {
		name := a.Name
		params := platform.MustParams(map[string]any{"n": 35, "rounds": 1})
		if i%2 == 1 {
			name = b.Name
			params = platform.MustParams(nil)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := fw.Invoke(name, params, platform.InvokeOptions{}); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, snapshot.ErrAllPinned) {
			t.Fatal(err)
		}
	}
	leakCheck(t, env)
	if busTopics(env) != 0 {
		t.Fatalf("%d topics leaked", busTopics(env))
	}
	// Both functions still work serially once the pressure is gone.
	if _, err := fw.Invoke(a.Name, platform.MustParams(map[string]any{"n": 35, "rounds": 1}), platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Invoke(b.Name, platform.MustParams(nil), platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
}
