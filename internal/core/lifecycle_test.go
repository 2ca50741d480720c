package core_test

import (
	"errors"
	"sync"
	"testing"

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

// assertStageFailed checks that the failed invocation counted one
// failure of stage and that only an execute failure returned the
// invocation.
func assertStageFailed(t *testing.T, env *platform.Env, stage string, inv *platform.Invocation) {
	t.Helper()
	if got := env.Metrics.Counter(metrics.Name("fireworks_stage_failures_total", "stage", stage)).Value(); got != 1 {
		t.Errorf("fireworks_stage_failures_total{stage=%q} = %d, want 1", stage, got)
	}
	if (inv != nil) != (stage == "execute") {
		t.Errorf("failure at %s returned invocation %v", stage, inv)
	}
}

// TestFailedInvocationLeaksNothing proves the stage table unwinds:
// whatever stage an invocation dies in, the failure is counted under
// that stage's label, and no msgbus topic, no running microVM and no
// open journal span survives it.
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
		inv, err := fw.Invoke("crasher", platform.MustParams(map[string]any{"m": 0}), platform.InvokeOptions{})
		if err == nil {
			t.Fatal("crash survived")
		}
		assertStageFailed(t, env, "execute", inv)
		assertFailedTraceClosed(t, env)
		leakCheck(t, env)
		if busTopics(env) != 0 {
			t.Fatalf("%d topics leaked by execute failure", busTopics(env))
		}
	})
	t.Run("netnsExhausted", func(t *testing.T) {
		// Two retained instances hold the last external IPs; the third
		// invocation fails at netns setup after its topic was created.
		env := platform.NewEnv(platform.EnvConfig{})
		release := holdExternalIPs(t, env, 2)
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
		inv, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
		if err == nil {
			t.Fatal("third invoke got a namespace")
		}
		assertStageFailed(t, env, "netns", inv)
		assertFailedTraceClosed(t, env)
		// Only the two retained instances' topics remain; the failed
		// invocation's topic and VM are gone.
		if busTopics(env) != 2 {
			t.Fatalf("topics = %d, want the 2 retained", busTopics(env))
		}
		if env.HV.VMCount() != 2 {
			t.Fatalf("VMs = %d, want the 2 retained", env.HV.VMCount())
		}
		if err := fw.Remove(w.Name); err != nil {
			t.Fatal(err)
		}
		release()
		leakCheck(t, env)
		if busTopics(env) != 0 {
			t.Fatalf("%d topics after Remove", busTopics(env))
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
		inv, err := fw.Invoke(a.Name, platform.MustParams(nil), platform.InvokeOptions{})
		if err == nil {
			t.Fatal("evicted function invoked")
		}
		assertStageFailed(t, env, "snapshot-get", inv)
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
		inv, err := fw.Invoke(w.Name, platform.MustParams(nil), platform.InvokeOptions{})
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("err = %v, want the injected fault", err)
		}
		assertStageFailed(t, env, "restore-or-reuse", inv)
		assertFailedTraceClosed(t, env)
		leakCheck(t, env)
		if busTopics(env) != 0 {
			t.Fatalf("%d topics leaked by restore failure", busTopics(env))
		}
	})
	t.Run("topicProduce", func(t *testing.T) {
		// An injected produce fault with retries off fails the stage
		// after it created the invocation's topic; the unwind deletes it.
		env, fw, plane := faultyEnv(t, faults.RetryPolicy{})
		w := workloads.Fact(runtime.LangNode)
		if _, err := fw.Install(w.Function); err != nil {
			t.Fatal(err)
		}
		plane.Enqueue(faults.SiteBusProduce, faults.KindError)
		inv, err := fw.Invoke(w.Name, platform.MustParams(nil), platform.InvokeOptions{})
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("err = %v, want the injected fault", err)
		}
		assertStageFailed(t, env, "topic-produce", inv)
		assertFailedTraceClosed(t, env)
		leakCheck(t, env)
		if busTopics(env) != 0 {
			t.Fatalf("%d topics leaked by produce failure", busTopics(env))
		}
	})
}

// TestConcurrentRetainInstances races parallel invokes with
// RetainInstances on: every invocation must retain exactly one live
// instance and keep its topic until Remove.
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
	if err := fw.Remove(w.Name); err != nil {
		t.Fatal(err)
	}
	leakCheck(t, env)
	if busTopics(env) != 0 {
		t.Fatalf("%d topics after Remove", busTopics(env))
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
