package platform

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/runtime"
)

// baselines lists every constructor the driver sits under.
var baselines = []struct {
	name string
	new  func(*Env) Platform
}{
	{"openwhisk", NewOpenWhisk},
	{"gvisor", NewGVisor},
	{"firecracker", func(env *Env) Platform { return NewFirecracker(env, FCNoSnapshot) }},
	{"firecracker+os-snapshot", func(env *Env) Platform { return NewFirecracker(env, FCOSSnapshot) }},
}

// TestBaselineContract pins what the driver promises for every kind:
// pool and memory bookkeeping agree through cold → warm → Remove, a warm
// request on an empty pool creates nothing, and a guest runtime error
// still returns the accounting and re-parks the guest.
func TestBaselineContract(t *testing.T) {
	for _, tc := range baselines {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(EnvConfig{})
			p := tc.new(env)
			if p.PlatformName() != tc.name {
				t.Fatalf("name = %q", p.PlatformName())
			}
			pooled := func(fn string, want int) {
				t.Helper()
				if n := len(p.(interface{ Spaces(string) []*mem.Space }).Spaces(fn)); n != want {
					t.Fatalf("Spaces = %d, want %d pooled", n, want)
				}
			}
			preInstall := env.Mem.Used()
			if _, err := p.Install(factFn("fact")); err != nil {
				t.Fatal(err)
			}
			bad := Function{Name: "bad", Source: "func main(p) { return 1 / 0; }", Lang: runtime.LangNode}
			if _, err := p.Install(bad); err != nil {
				t.Fatal(err)
			}

			// ModeWarm on an empty pool: an error, and no guest.
			used, vms := env.Mem.Used(), env.HV.VMCount()
			if inv, err := p.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeWarm}); err == nil || inv != nil {
				t.Fatalf("warm invoke on an empty pool: inv=%v err=%v", inv, err)
			}
			if env.Mem.Used() != used || env.HV.VMCount() != vms {
				t.Fatalf("failed warm invoke left a guest: mem %d -> %d, VMs %d -> %d",
					used, env.Mem.Used(), vms, env.HV.VMCount())
			}
			pooled("fact", 0)

			cold, err := p.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold})
			if err != nil || cold.Mode != ModeCold {
				t.Fatalf("cold: inv=%+v err=%v", cold, err)
			}
			pooled("fact", 1)
			warm, err := p.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeWarm})
			if err != nil || warm.Mode != ModeWarm || warm.SandboxID != cold.SandboxID {
				t.Fatalf("warm: inv=%+v err=%v", warm, err)
			}
			pooled("fact", 1)

			// A guest runtime error: the invocation comes back with its
			// breakdown, and the guest is parked again, not dropped.
			inv, err := p.Invoke("bad", MustParams(nil), InvokeOptions{})
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("err = %v", err)
			}
			if inv == nil || inv.Breakdown.Startup() == 0 || inv.Breakdown.Total() != inv.Clock.Now() {
				t.Fatalf("failed invocation lost its accounting: %+v", inv)
			}
			pooled("bad", 1)

			for _, fn := range []string{"fact", "bad"} {
				if err := p.Remove(fn); err != nil {
					t.Fatal(err)
				}
				pooled(fn, 0)
			}
			if env.Mem.Used() != preInstall || env.HV.VMCount() != 0 {
				t.Fatalf("after Remove: mem %d (pre-install %d), VMs %d", env.Mem.Used(), preInstall, env.HV.VMCount())
			}
		})
	}
}

// TestFirecrackerFailedStartLeaksNothing: a cold start or OS-snapshot
// install that fails part-way must stop the microVM it created.
func TestFirecrackerFailedStartLeaksNothing(t *testing.T) {
	for _, mode := range []FirecrackerMode{FCNoSnapshot, FCOSSnapshot} {
		// The last free external IP is held by the parked first VM, so
		// the second cold start fails in SetupNetwork, after its VM
		// exists.
		t.Run(mode.String()+"/network", func(t *testing.T) {
			env := NewEnv(EnvConfig{})
			held, err := env.Router.CreateNamespace("held")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4095; i++ {
				if _, err := env.Router.AllocExternal(held); err != nil {
					t.Fatal(err)
				}
			}
			p := NewFirecracker(env, mode)
			if _, err := p.Install(factFn("fact")); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold}); err != nil {
				t.Fatal(err)
			}
			vms, used := env.HV.VMCount(), env.Mem.Used()
			if _, err := p.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold}); err == nil {
				t.Fatal("second cold start got an external IP from an exhausted pool")
			}
			if env.HV.VMCount() != vms || env.Mem.Used() != used {
				t.Fatalf("failed cold start leaked: VMs %d -> %d, mem %d -> %d",
					vms, env.HV.VMCount(), used, env.Mem.Used())
			}
		})
		// A scripted kernel-boot fault hits the cold start (no snapshot)
		// or the install-time capture (OS snapshot).
		t.Run(mode.String()+"/boot", func(t *testing.T) {
			plane := faults.NewPlane(1)
			env := NewEnv(EnvConfig{Faults: plane})
			p := NewFirecracker(env, mode)
			vms, used := env.HV.VMCount(), env.Mem.Used()
			plane.Enqueue(faults.SiteVMMBoot, faults.KindError)
			_, err := p.Install(factFn("fact"))
			if err == nil {
				_, err = p.Invoke("fact", MustParams(nil), InvokeOptions{Mode: ModeCold})
			}
			if err == nil {
				t.Fatal("scripted boot fault did not surface")
			}
			if env.HV.VMCount() != vms || env.Mem.Used() != used {
				t.Fatalf("failed boot leaked: VMs %d -> %d, mem %d -> %d",
					vms, env.HV.VMCount(), used, env.Mem.Used())
			}
		})
	}
}
