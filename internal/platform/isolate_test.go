package platform

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/runtime"
)

func TestIsolateBasicInvoke(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewIsolate(env)
	if p.PlatformName() != "isolate" {
		t.Fatal("name")
	}
	if _, err := p.Install(factFn("fact")); err != nil {
		t.Fatal(err)
	}
	inv, err := p.Invoke("fact", MustParams(map[string]any{"n": 10}), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Result != int64(3628800) {
		t.Fatalf("result = %v", inv.Result)
	}
	// "Cold" start in an isolate is milliseconds — no process boot, no
	// container create, no VM.
	if su := inv.Breakdown.Startup(); su > 20*time.Millisecond {
		t.Fatalf("isolate cold startup = %v, want ~ms", su)
	}
	warm, err := p.Invoke("fact", MustParams(map[string]any{"n": 10}), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Mode != ModeWarm || warm.Breakdown.Startup() > 2*time.Millisecond {
		t.Fatalf("warm: %v %v", warm.Mode, warm.Breakdown.Startup())
	}
}

func TestIsolateRejectsPython(t *testing.T) {
	p := NewIsolate(NewEnv(EnvConfig{}))
	fn := factFn("py")
	fn.Lang = runtime.LangPython
	if _, err := p.Install(fn); err == nil || !strings.Contains(err.Error(), "only nodejs") {
		t.Fatalf("err = %v", err)
	}
}

func TestIsolateProcessSharing(t *testing.T) {
	// Table 1's "High (process sharing)" memory efficiency: N isolates
	// share the runtime process image; per-isolate PSS is far below a
	// container's footprint.
	env := NewEnv(EnvConfig{})
	p := NewIsolate(env).(*baseline)
	p.Install(factFn("fact"))
	params := MustParams(map[string]any{"n": 5})
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := p.Invoke("fact", params, InvokeOptions{Mode: ModeCold}); err != nil {
			t.Fatal(err)
		}
	}
	spaces := p.Spaces("fact")
	if len(spaces) != n {
		t.Fatalf("isolates = %d", len(spaces))
	}
	var pss float64
	for _, s := range spaces {
		pss += s.PSS()
	}
	perIsolate := pss / n
	// Runtime image+libs is 110 MiB; shared across 20 isolates each
	// should sit at ~5.5 MiB share + a few MiB private.
	if perIsolate > 20<<20 {
		t.Fatalf("per-isolate PSS = %.1f MiB; process sharing broken", perIsolate/(1<<20))
	}
	// A container running the same function holds the full image
	// privately.
	ow := NewOpenWhisk(NewEnv(EnvConfig{})).(*baseline)
	ow.Install(factFn("fact"))
	ow.Invoke("fact", params, InvokeOptions{})
	owPSS := ow.Spaces("fact")[0].PSS()
	if owPSS < 5*perIsolate {
		t.Fatalf("container PSS %.1f MiB not far above isolate %.1f MiB",
			owPSS/(1<<20), perIsolate/(1<<20))
	}
}

func TestIsolateRemoveFreesMemory(t *testing.T) {
	env := NewEnv(EnvConfig{})
	p := NewIsolate(env)
	p.Install(factFn("fact"))
	p.Invoke("fact", MustParams(nil), InvokeOptions{})
	if err := p.Remove("fact"); err != nil {
		t.Fatal(err)
	}
	if used := env.Mem.Used(); used != 0 {
		t.Fatalf("%d bytes held after remove", used)
	}
	if err := p.Remove("fact"); err == nil {
		t.Fatal("double remove succeeded")
	}
	_ = mem.PageSize
}
