package platform

import (
	"time"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/sandbox"
	"repro/internal/trace"
)

// OpenWhisk controller costs (authentication, action lookup, Kafka
// scheduling). The paper notes OpenWhisk pays "pretty high overhead to
// initialize a container (e.g., authentication and message queue
// initialization) in the case of a cold start".
const (
	costOWColdController = 470 * time.Millisecond
	costOWWarmController = 24 * time.Millisecond
)

// processGuest is the park/stop half of the kinds whose guest is a host
// process-level sandbox owning one address space: it stays resident as
// it is while pooled, and stopping it frees the space.
type processGuest struct{}

func (processGuest) park(*guest) error { return nil }

func (processGuest) stop(g *guest) error {
	g.space.Free()
	return nil
}

// containerKind is the guest behind the OpenWhisk and gVisor baselines:
// a pausable container with a private runtime image.
type containerKind struct {
	processGuest
	// controller overheads; zero for bare-Docker gVisor.
	coldOverhead time.Duration
	warmOverhead time.Duration
}

// NewOpenWhisk returns the OpenWhisk baseline: container sandboxes plus
// controller overhead, with function-chain support. Warm containers are
// kept alive indefinitely (the right model for untimed measurements).
func NewOpenWhisk(env *Env) Platform { return NewOpenWhiskKeepAlive(env, 0) }

// NewOpenWhiskKeepAlive is NewOpenWhisk with a bounded keep-alive: idle
// warm containers expire after ttl on the workload timeline
// (InvokeOptions.At), releasing their memory — the production policy
// ("defer termination of the worker sandbox for a certain period", §2).
func NewOpenWhiskKeepAlive(env *Env, ttl time.Duration) Platform {
	b := newBaseline(env, "openwhisk", sandbox.ClassContainer, ttl,
		containerKind{coldOverhead: costOWColdController, warmOverhead: costOWWarmController})
	b.chains = true
	return b
}

// NewGVisor returns the gVisor baseline: runsc sandboxes under plain
// Docker (no controller, no chain support).
func NewGVisor(env *Env) Platform {
	return newBaseline(env, "gvisor", sandbox.ClassGVisor, 0, containerKind{})
}

// install: container platforms only register the function.
func (containerKind) install(*baseline, *deployed, *InstallReport) error { return nil }

// cold pays controller work, container creation, runtime boot and
// application load.
func (k containerKind) cold(b *baseline, g *guest, inv *Invocation) error {
	if k.coldOverhead > 0 {
		inv.ChargeStartup("controller", k.coldOverhead)
	}
	inv.ChargeStartup("container-create", b.profile.ColdCreate)

	g.id = b.newID()
	g.space = b.env.Mem.NewSpace(g.id)
	g.space.AllocPrivate(mem.KindAnon, mem.PagesFor(b.profile.InfraBytes))

	bootMark := inv.Clock.Now()
	if err := b.startRuntime(g, inv, fs.NewOverlay(fs.NewMemFS()), false); err != nil {
		return err
	}
	inv.Breakdown.Add(trace.PhaseStartup, "runtime-boot+load", inv.Clock.Since(bootMark))
	g.space.AllocPrivate(mem.KindRuntime, mem.PagesFor(g.rt.Model.RuntimeImageBytes))
	g.space.AllocPrivate(mem.KindLibrary, mem.PagesFor(g.rt.Model.LibraryBytes))
	return nil
}

func (k containerKind) resume(b *baseline, g *guest, inv *Invocation) error {
	if k.warmOverhead > 0 {
		inv.ChargeStartup("controller", k.warmOverhead)
	}
	inv.ChargeStartup("container-unpause", b.profile.WarmResume)
	return nil
}

// dirty: heap churn plus workload writes.
func (containerKind) dirty(g *guest) {
	g.space.AllocPrivate(mem.KindHeap,
		mem.PagesFor(g.rt.Model.HeapPerInvokeBytes+g.fn.DirtyBytesPerRun))
}
