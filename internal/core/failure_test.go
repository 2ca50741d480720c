package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// leakCheck asserts the environment is fully drained: no live microVMs,
// no network namespaces, no stray parameter topics beyond installs.
func leakCheck(t *testing.T, env *platform.Env) {
	t.Helper()
	if n := env.HV.VMCount(); n != 0 {
		t.Errorf("%d microVMs leaked", n)
	}
	if n := env.Router.NamespaceCount(); n != 0 {
		t.Errorf("%d network namespaces leaked", n)
	}
}

// holdExternalIPs takes all but free of the host's 4096 external
// addresses into one namespace, so the pool runs out after free more
// microVMs. The returned func gives them back.
func holdExternalIPs(t *testing.T, env *platform.Env, free int) func() {
	t.Helper()
	ns, err := env.Router.CreateNamespace("held")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096-free; i++ {
		if _, err := env.Router.AllocExternal(ns); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		if err := env.Router.DeleteNamespace("held"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGuestCrashCleansUp(t *testing.T) {
	env, fw := newFW(t, core.Options{})
	if _, err := fw.Install(platform.Function{
		Name:   "crasher",
		Source: `func main(params) { let x = params.d; return 1 / x; }`,
		Lang:   runtime.LangNode,
		// Priming must survive: default params avoid the crash.
		DefaultParams: map[string]any{"d": 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := fw.Invoke("crasher", platform.MustParams(map[string]any{"d": 0}), platform.InvokeOptions{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
	leakCheck(t, env)
	// The platform stays healthy: the next (valid) request works.
	inv, err := fw.Invoke("crasher", platform.MustParams(map[string]any{"d": 2}), platform.InvokeOptions{})
	if err != nil || inv.Result != int64(0) {
		t.Fatalf("recovery invoke: %v, %v", inv, err)
	}
	leakCheck(t, env)
}

// TestGuestErrorLinesMatchUserSource faults a function on its own line
// 12 on Fireworks and on OpenWhisk: the annotator decorates the tree,
// inserting nothing above user code, so both name the user's line.
func TestGuestErrorLinesMatchUserSource(t *testing.T) {
	src := `func half(x) {
  return x / 2;
}

func twice(x) {
  return x * 2;
}

func main(params) {
  let d = params.d;
  let q = twice(half(8));
  return q / d;
}
`
	fn := platform.Function{Name: "faulty", Source: src, Lang: runtime.LangNode, DefaultParams: map[string]any{"d": 1}}
	const want = "vm: line 12:"
	_, fw := newFW(t, core.Options{})
	ow := platform.NewOpenWhisk(platform.NewEnv(platform.EnvConfig{}))
	for _, p := range []platform.Platform{fw, ow} {
		if _, err := p.Install(fn); err != nil {
			t.Fatal(err)
		}
		_, err := p.Invoke(fn.Name, platform.MustParams(map[string]any{"d": 0}), platform.InvokeOptions{})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", p.PlatformName(), err, want)
		}
	}
}

func TestChainChildCrashCleansUpBothVMs(t *testing.T) {
	env, fw := newFW(t, core.Options{})
	if _, err := fw.Install(platform.Function{
		Name:          "child",
		Source:        `func main(params) { let l = []; return l[params.i]; }`,
		Lang:          runtime.LangNode,
		DefaultParams: map[string]any{"i": -1}, // priming: l[-1] of empty also fails...
	}); err == nil {
		// Priming runs main(default) which crashes -> install must fail
		// cleanly, not wedge the framework.
		t.Fatal("install of always-crashing function unexpectedly succeeded")
	}
	leakCheck(t, env)

	// A child that is fine when primed but crashes on demand.
	if _, err := fw.Install(platform.Function{
		Name:          "child",
		Source:        `func main(params) { if (params.boom == true) { return [][0]; } return "ok"; }`,
		Lang:          runtime.LangNode,
		DefaultParams: map[string]any{"boom": false},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Install(platform.Function{
		Name:          "parent",
		Source:        `func main(params) { return invoke("child", params); }`,
		Lang:          runtime.LangNode,
		DefaultParams: map[string]any{"boom": false},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := fw.Invoke("parent", platform.MustParams(map[string]any{"boom": true}), platform.InvokeOptions{})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
	leakCheck(t, env)
}

func TestInstallFailuresLeaveNoResidue(t *testing.T) {
	env, fw := newFW(t, core.Options{})
	cases := []struct {
		name string
		fn   platform.Function
	}{
		{"syntax", platform.Function{Name: "bad", Source: "func main(", Lang: runtime.LangNode}},
		{"noEntry", platform.Function{Name: "bad", Source: "func other(p) { return p; }", Lang: runtime.LangNode}},
		{"primingCrash", platform.Function{Name: "bad",
			Source: `func main(params) { return 1 % 0; }`, Lang: runtime.LangNode}},
		{"reservedName", platform.Function{Name: "bad",
			Source: "func __fireworks_jit() {}\nfunc main(p) { return p; }", Lang: runtime.LangNode}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := fw.Install(tc.fn); err == nil {
				t.Fatal("install succeeded")
			}
			leakCheck(t, env)
			if env.Snaps.Has("bad") {
				t.Fatal("failed install left a snapshot")
			}
			if _, err := fw.Invoke("bad", platform.MustParams(nil), platform.InvokeOptions{}); err == nil {
				t.Fatal("failed install is invokable")
			}
		})
	}
}

func TestIPPoolExhaustionFailsCleanly(t *testing.T) {
	// Two external IPs left: the third concurrent instance cannot get a
	// namespace; the invoke must fail without leaking its VM, its
	// topic, or the queue message.
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
	_, err := fw.Invoke(w.Name, params, platform.InvokeOptions{})
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err = %v", err)
	}
	// Two healthy instances remain; the failed one left nothing behind.
	if env.HV.VMCount() != 2 {
		t.Fatalf("VMs = %d, want the 2 healthy instances", env.HV.VMCount())
	}
	if err := fw.Remove(w.Name); err != nil {
		t.Fatal(err)
	}
	release()
	leakCheck(t, env)
	// With capacity released, invocation works again.
	if _, err := fw.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
		t.Fatalf("post-recovery invoke: %v", err)
	}
}

func TestInstallSnapshotTooLargeForBudget(t *testing.T) {
	// A budget smaller than a single image: install must fail and tear
	// its VM down.
	env := platform.NewEnv(platform.EnvConfig{SnapshotDiskBudget: 50 << 20})
	fw := core.New(env, core.Options{})
	w := workloads.NetLatency(runtime.LangNode)
	_, err := fw.Install(w.Function)
	if err == nil || !strings.Contains(err.Error(), "exceeds store budget") {
		t.Fatalf("err = %v", err)
	}
	leakCheck(t, env)
}

// TestSoakMixedPlatforms is a deterministic soak: hundreds of mixed
// invocations (cold, warm, resumed, chained, failing) across platforms
// sharing one host, followed by a global leak check and the PSS
// conservation invariant.
func TestSoakMixedPlatforms(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	env := platform.NewEnv(platform.EnvConfig{})
	fw := core.New(env, core.Options{})
	ow := platform.NewOpenWhisk(env)

	fact := workloads.Fact(runtime.LangNode)
	if _, err := fw.Install(fact.Function); err != nil {
		t.Fatal(err)
	}
	if _, err := ow.Install(fact.Function); err != nil {
		t.Fatal(err)
	}
	crash := platform.Function{
		Name:          "sometimes",
		Source:        `func main(params) { if (params.i % 7 == 3) { return 1 / 0; } return params.i; }`,
		Lang:          runtime.LangNode,
		DefaultParams: map[string]any{"i": 0},
	}
	if _, err := fw.Install(crash); err != nil {
		t.Fatal(err)
	}

	factParams := platform.MustParams(map[string]any{"n": 9999991, "rounds": 1})
	failures := 0
	for i := 0; i < 150; i++ {
		switch i % 3 {
		case 0:
			if _, err := fw.Invoke(fact.Name, factParams, platform.InvokeOptions{}); err != nil {
				t.Fatalf("iter %d fireworks: %v", i, err)
			}
		case 1:
			if _, err := ow.Invoke(fact.Name, factParams, platform.InvokeOptions{}); err != nil {
				t.Fatalf("iter %d openwhisk: %v", i, err)
			}
		case 2:
			_, err := fw.Invoke("sometimes",
				platform.MustParams(map[string]any{"i": i}), platform.InvokeOptions{})
			if i%7 == 3 && err == nil {
				t.Fatalf("iter %d should have failed", i)
			}
			if i%7 != 3 && err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			if err != nil {
				failures++
			}
		}
	}
	if failures == 0 {
		t.Fatal("soak never exercised the failure path")
	}
	// Fireworks leaves nothing; OpenWhisk holds only its warm pool.
	if n := env.HV.VMCount(); n != 0 {
		t.Fatalf("%d microVMs alive after soak", n)
	}
	if n := env.Router.NamespaceCount(); n != 0 {
		t.Fatalf("%d namespaces alive after soak", n)
	}
	// The host still accounts for the warm container's memory and
	// nothing else unaccounted: removing the container drains it.
	if err := ow.Remove(fact.Name); err != nil {
		t.Fatal(err)
	}
	if used := env.Mem.Used(); used != 0 {
		t.Fatalf("%d bytes unaccounted after teardown", used)
	}
}
