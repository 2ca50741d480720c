package platform

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/runtime"
)

const factSrc = `
func fact(n) {
  if (n < 2) { return 1; }
  return n * fact(n - 1);
}
func main(params) {
  let n = params.n;
  if (n == null) { n = 10; }
  return fact(n);
}
`

func factFn(name string) Function {
	return Function{
		Name:          name,
		Source:        factSrc,
		Lang:          runtime.LangNode,
		DefaultParams: map[string]any{"n": 10},
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		fn   Function
		sub  string
	}{
		{"noName", Function{Source: factSrc, Lang: runtime.LangNode}, "needs a name"},
		{"badLang", Function{Name: "x", Source: factSrc, Lang: "cobol"}, "unknown language"},
		{"syntax", Function{Name: "x", Source: "func (", Lang: runtime.LangNode}, "expected"},
		{"noEntry", Function{Name: "x", Source: "func other(p) { return p; }", Lang: runtime.LangNode}, `lacks entry "main"`},
		{"badArity", Function{Name: "x", Source: "func main(a, b) { return a; }", Lang: runtime.LangNode}, "one params argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(&tc.fn)
			if err == nil || !strings.Contains(err.Error(), tc.sub) {
				t.Fatalf("err = %v, want %q", err, tc.sub)
			}
		})
	}
	ok := factFn("good")
	if err := Validate(&ok); err != nil {
		t.Fatalf("valid function rejected: %v", err)
	}
}

func TestOpenWhiskColdThenWarm(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewOpenWhisk(env)
	if p.PlatformName() != "openwhisk" {
		t.Fatal("name")
	}
	if _, err := p.Install(factFn("fact")); err != nil {
		t.Fatal(err)
	}
	params := MustParams(map[string]any{"n": 10})
	cold, err := p.Invoke("fact", params, InvokeOptions{Mode: ModeCold})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Mode != ModeCold {
		t.Fatalf("mode = %v", cold.Mode)
	}
	if cold.Result != int64(3628800) {
		t.Fatalf("result = %v", cold.Result)
	}
	warm, err := p.Invoke("fact", params, InvokeOptions{Mode: ModeWarm})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Mode != ModeWarm {
		t.Fatalf("mode = %v", warm.Mode)
	}
	// Warm start-up must be dramatically below cold.
	if warm.Breakdown.Startup() >= cold.Breakdown.Startup()/10 {
		t.Fatalf("warm %v vs cold %v", warm.Breakdown.Startup(), cold.Breakdown.Startup())
	}
	// The cold start pays the OpenWhisk controller + container create.
	if cold.Breakdown.Startup() < costOWColdController {
		t.Fatalf("cold startup %v below controller overhead", cold.Breakdown.Startup())
	}
}

func TestWarmModeWithoutPoolFails(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewOpenWhisk(env)
	p.Install(factFn("fact"))
	if _, err := p.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeWarm}); err == nil {
		t.Fatal("warm invoke without pool succeeded")
	}
}

func TestAutoModeReusesSandbox(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewOpenWhisk(env).(*baseline)
	p.Install(factFn("fact"))
	p.Invoke("fact", MustParams(nil), InvokeOptions{})
	if p.WarmCount("fact") != 1 {
		t.Fatalf("pool = %d", p.WarmCount("fact"))
	}
	inv, err := p.Invoke("fact", MustParams(nil), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Mode != ModeWarm {
		t.Fatal("auto mode did not reuse the warm container")
	}
	if p.WarmCount("fact") != 1 {
		t.Fatalf("pool grew to %d", p.WarmCount("fact"))
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	env := NewEnv(EnvConfig{})
	for _, p := range []Platform{NewOpenWhisk(env), NewGVisor(env), NewFirecracker(env, FCNoSnapshot)} {
		if _, err := p.Invoke("ghost", MustParams(nil), InvokeOptions{}); err == nil {
			t.Errorf("%s: unknown function invoked", p.PlatformName())
		}
		if err := p.Remove("ghost"); err == nil {
			t.Errorf("%s: unknown function removed", p.PlatformName())
		}
	}
}

func TestGVisorSlowerColdThanOpenWhisk(t *testing.T) {
	env := NewEnv(EnvConfig{})
	ow := NewOpenWhisk(env)
	gv := NewGVisor(NewEnv(EnvConfig{}))
	ow.Install(factFn("fact"))
	gv.Install(factFn("fact"))
	owInv, _ := ow.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold})
	gvInv, _ := gv.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold})
	if gvInv.Breakdown.Startup() <= owInv.Breakdown.Startup() {
		t.Fatalf("gvisor cold %v not slower than openwhisk %v",
			gvInv.Breakdown.Startup(), owInv.Breakdown.Startup())
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewOpenWhiskKeepAlive(env, 10*time.Minute).(*baseline)
	p.Install(factFn("fact"))
	params := MustParams(map[string]any{"n": 5})

	// t=0: cold start.
	first, err := p.Invoke("fact", params, InvokeOptions{At: 0})
	if err != nil {
		t.Fatal(err)
	}
	if first.Mode != ModeCold {
		t.Fatalf("first mode = %v", first.Mode)
	}
	// t=5m: inside the keep-alive — warm.
	warm, err := p.Invoke("fact", params, InvokeOptions{At: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Mode != ModeWarm {
		t.Fatalf("in-window mode = %v", warm.Mode)
	}
	// t=20m: the container idled past its TTL — cold again, and the
	// expired container's memory is released.
	memBefore := env.Mem.Used()
	cold, err := p.Invoke("fact", params, InvokeOptions{At: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Mode != ModeCold {
		t.Fatalf("post-TTL mode = %v", cold.Mode)
	}
	// One container expired, one was created: usage should not double.
	if env.Mem.Used() > memBefore+(20<<20) {
		t.Fatalf("memory grew from %d to %d; expired container not freed", memBefore, env.Mem.Used())
	}
}

func TestExpireIdleReapsInBackground(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewOpenWhiskKeepAlive(env, time.Minute).(*baseline)
	p.Install(factFn("fact"))
	if _, err := p.Invoke("fact", MustParams(nil), InvokeOptions{At: 0}); err != nil {
		t.Fatal(err)
	}
	before := env.Mem.Used()
	if before == 0 {
		t.Fatal("no container memory resident")
	}
	if n := p.ExpireIdle(30 * time.Second); n != 0 {
		t.Fatalf("reaped %d containers before TTL", n)
	}
	if n := p.ExpireIdle(2 * time.Minute); n != 1 {
		t.Fatalf("reaped %d containers after TTL, want 1", n)
	}
	if env.Mem.Used() >= before {
		t.Fatal("reaper did not release memory")
	}
	// Infinite keep-alive never reaps.
	inf := NewOpenWhisk(env).(*baseline)
	inf.Install(factFn("fact2"))
	inf.Invoke("fact2", MustParams(nil), InvokeOptions{At: 0})
	if n := inf.ExpireIdle(time.Hour); n != 0 {
		t.Fatalf("infinite keep-alive reaped %d", n)
	}
}

func TestGVisorExecTax(t *testing.T) {
	// Sentry interception slows pure execution, not just I/O (the
	// paper: "gVisor shows slower cold start-up time and execution
	// time as it enforces additional security checks").
	heavy := Function{Name: "fact", Source: factSrc, Lang: runtime.LangNode}
	ow := NewOpenWhisk(NewEnv(EnvConfig{}))
	gv := NewGVisor(NewEnv(EnvConfig{}))
	ow.Install(heavy)
	gv.Install(heavy)
	params := MustParams(map[string]any{"n": 18})
	owInv, err := ow.Invoke("fact", params, InvokeOptions{Mode: ModeCold})
	if err != nil {
		t.Fatal(err)
	}
	gvInv, err := gv.Invoke("fact", params, InvokeOptions{Mode: ModeCold})
	if err != nil {
		t.Fatal(err)
	}
	if gvInv.Breakdown.Exec() <= owInv.Breakdown.Exec() {
		t.Fatalf("gvisor exec %v not slower than openwhisk %v",
			gvInv.Breakdown.Exec(), owInv.Breakdown.Exec())
	}
	// Conservation still holds with the tax applied.
	if gvInv.Breakdown.Total() != gvInv.Clock.Now() {
		t.Fatalf("breakdown %v != clock %v", gvInv.Breakdown.Total(), gvInv.Clock.Now())
	}
}

func TestFirecrackerColdSlowestWarmComparable(t *testing.T) {
	fcEnv := NewEnv(EnvConfig{})
	fc := NewFirecracker(fcEnv, FCNoSnapshot)
	fc.Install(factFn("fact"))
	cold, err := fc.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold})
	if err != nil {
		t.Fatal(err)
	}
	// VM create + kernel boot dominate.
	if cold.Breakdown.Startup() < 1200*time.Millisecond {
		t.Fatalf("firecracker cold startup = %v", cold.Breakdown.Startup())
	}
	warm, err := fc.Invoke("fact", MustParams(nil), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Mode != ModeWarm || warm.Breakdown.Startup() > 60*time.Millisecond {
		t.Fatalf("warm: mode=%v startup=%v", warm.Mode, warm.Breakdown.Startup())
	}
	if fcEnv.HV.VMCount() != 1 {
		t.Fatalf("VMs = %d, want 1 pooled", fcEnv.HV.VMCount())
	}
	if err := fc.Remove("fact"); err != nil {
		t.Fatal(err)
	}
	if fcEnv.HV.VMCount() != 0 {
		t.Fatal("Remove leaked VMs")
	}
}

func TestFirecrackerOSSnapshotFasterCold(t *testing.T) {
	plain := NewFirecracker(NewEnv(EnvConfig{}), FCNoSnapshot)
	snap := NewFirecracker(NewEnv(EnvConfig{}), FCOSSnapshot)
	plain.Install(factFn("fact"))
	report, err := snap.Install(factFn("fact"))
	if err != nil {
		t.Fatal(err)
	}
	if report.SnapshotBytes == 0 || report.Duration == 0 {
		t.Fatalf("OS snapshot install report empty: %+v", report)
	}
	pc, _ := plain.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold})
	sc, err := snap.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Breakdown.Startup() >= pc.Breakdown.Startup() {
		t.Fatalf("OS snapshot cold %v not faster than plain %v",
			sc.Breakdown.Startup(), pc.Breakdown.Startup())
	}
	// But it still boots the runtime, so it is well above snapshot-only
	// latency.
	if sc.Breakdown.Startup() < 100*time.Millisecond {
		t.Fatalf("OS snapshot cold %v implausibly fast", sc.Breakdown.Startup())
	}
}

func TestChainsOnlyOnOpenWhisk(t *testing.T) {
	caller := Function{
		Name:   "caller",
		Source: `func main(params) { return invoke("callee", {"n": 5}); }`,
		Lang:   runtime.LangNode,
	}
	// gVisor (bare sandbox manager) cannot run chains: the invoke
	// native is absent, so the call fails.
	gv := NewGVisor(NewEnv(EnvConfig{}))
	gv.Install(caller)
	gv.Install(factFn("callee"))
	if _, err := gv.Invoke("caller", MustParams(nil), InvokeOptions{}); err == nil ||
		!strings.Contains(err.Error(), "undefined variable") {
		t.Fatalf("gvisor chain err = %v", err)
	}
	// OpenWhisk runs the chain and shares the breakdown.
	ow := NewOpenWhisk(NewEnv(EnvConfig{}))
	ow.Install(caller)
	ow.Install(factFn("callee"))
	inv, err := ow.Invoke("caller", MustParams(nil), InvokeOptions{Mode: ModeCold})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Result != int64(120) {
		t.Fatalf("chain result = %v", inv.Result)
	}
	// Two cold containers' start-up are both in the one breakdown.
	if inv.Breakdown.Startup() < 2*costOWColdController {
		t.Fatalf("chain startup %v misses the child's cold start", inv.Breakdown.Startup())
	}
}

func TestGuestIONatives(t *testing.T) {
	src := `
func main(params) {
  file_write("/data/x.txt", "hello");
  let back = file_read("/data/x.txt");
  file_append("/data/x.txt", "!");
  let full = file_read("/data/x.txt");
  db_put("t", {"_id": "doc1", "v": 42});
  let doc = db_get("t", "doc1");
  let found = db_find("t", {"v": 42});
  http_respond(201, back);
  return {"back": back, "full": full, "doc_v": doc.v, "found": len(found)};
}
`
	env := NewEnv(EnvConfig{})
	p := NewOpenWhisk(env)
	p.Install(Function{Name: "io", Source: src, Lang: runtime.LangNode})
	inv, err := p.Invoke("io", MustParams(nil), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := inv.Result.(*lang.Map)
	if m.Get("back") != "hello" || m.Get("full") != "hello!" {
		t.Fatalf("file ops: %v", lang.Format(m))
	}
	if m.Get("doc_v") != int64(42) || m.Get("found") != int64(1) {
		t.Fatalf("db ops: %v", lang.Format(m))
	}
	if inv.Response == nil || inv.Response.Status != 201 || inv.Response.Body != "hello" {
		t.Fatalf("response: %+v", inv.Response)
	}
	// DB and response charges land in "others".
	if inv.Breakdown.Others() == 0 {
		t.Fatal("no others time recorded")
	}
}

func TestResultWrappedWhenNoExplicitResponse(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewOpenWhisk(env)
	p.Install(factFn("fact"))
	inv, _ := p.Invoke("fact", MustParams(map[string]any{"n": 5}), InvokeOptions{})
	if inv.Response == nil || inv.Response.Status != 200 || inv.Response.Body != "120" {
		t.Fatalf("response: %+v", inv.Response)
	}
}

func TestGuestErrorPropagates(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewOpenWhisk(env)
	p.Install(Function{Name: "bad", Source: "func main(p) { return 1 / 0; }", Lang: runtime.LangNode})
	_, err := p.Invoke("bad", MustParams(nil), InvokeOptions{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestEnvDefaults(t *testing.T) {
	env := NewEnv(EnvConfig{})
	if env.Mem.Capacity() != 128<<30 {
		t.Fatalf("capacity = %d", env.Mem.Capacity())
	}
	if env.Mem.SwapThreshold() != uint64(float64(env.Mem.Capacity())*0.6) {
		t.Fatal("swappiness default wrong")
	}
	if env.Bus == nil || env.Couch == nil || env.Snaps == nil || env.HV == nil || env.Router == nil {
		t.Fatal("env incomplete")
	}
}

func TestBreakdownConservation(t *testing.T) {
	// The breakdown phases must sum exactly to the clock's elapsed
	// virtual time — nothing double-counted, nothing dropped.
	env := NewEnv(EnvConfig{})
	p := NewOpenWhisk(env)
	p.Install(factFn("fact"))
	inv, err := p.Invoke("fact", MustParams(map[string]any{"n": 12}), InvokeOptions{Mode: ModeCold})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Breakdown.Total() != inv.Clock.Now() {
		t.Fatalf("breakdown %v != clock %v", inv.Breakdown.Total(), inv.Clock.Now())
	}
}
