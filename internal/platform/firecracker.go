package platform

import (
	"repro/internal/mem"
	"repro/internal/sandbox"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/vmm"
)

// FirecrackerMode selects the baseline's snapshot behaviour for the
// §5.5 factor analysis.
type FirecrackerMode int

// Firecracker baseline modes.
const (
	// FCNoSnapshot boots a fresh microVM per cold start (the paper's
	// "original version of Firecracker as a baseline, which does not
	// use a snapshot").
	FCNoSnapshot FirecrackerMode = iota
	// FCOSSnapshot restores a VM-level snapshot taken right after the
	// guest OS booted; the runtime still boots and the function still
	// loads (and JITs) after restore — the "+VM-level OS snapshot"
	// factor.
	FCOSSnapshot
)

// String names the mode.
func (m FirecrackerMode) String() string {
	if m == FCOSSnapshot {
		return "os-snapshot"
	}
	return "no-snapshot"
}

// osSnapshotWorkingSet is the post-boot resident set a restored OS
// snapshot faults in before the runtime can start.
const osSnapshotWorkingSet = 24 << 20

// firecrackerKind is the Firecracker baseline's guest: a microVM, one
// function per VM, warm pool by pausing VMs. It cannot run function
// chains (§5.3).
type firecrackerKind struct{ mode FirecrackerMode }

// NewFirecracker returns the Firecracker baseline in the given mode.
func NewFirecracker(env *Env, mode FirecrackerMode) Platform {
	name := "firecracker"
	if mode == FCOSSnapshot {
		name = "firecracker+os-snapshot"
	}
	return newBaseline(env, name, sandbox.ClassFirecracker, 0, firecrackerKind{mode})
}

// install: in OS-snapshot mode installation boots a VM once and captures
// the post-OS-boot image that cold starts restore.
func (k firecrackerKind) install(b *baseline, fn *deployed, report *InstallReport) error {
	if k.mode != FCOSSnapshot {
		return nil
	}
	clock := vclock.New()
	vm, err := b.env.HV.CreateVM(vmm.DefaultConfig(), clock)
	if err != nil {
		return err
	}
	var snap *vmm.Snapshot
	if err = vm.BootKernel(clock); err == nil {
		snap, err = b.env.HV.TakeSnapshot(vm, vmm.SnapOSOnly,
			[]vmm.RegionSpec{{Kind: mem.KindKernel, Bytes: vmm.CostKernelBytes}},
			osSnapshotWorkingSet, nil, clock)
	}
	// The install VM exists only to be imaged: it goes whether or not
	// the capture worked.
	if stopErr := vm.Stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	fn.osSnap = snap
	report.Duration = clock.Now()
	report.SnapshotBytes = snap.TotalBytes()
	return nil
}

// cold restores the OS snapshot or boots a fresh kernel, then boots the
// runtime and loads the function inside the VM.
func (k firecrackerKind) cold(b *baseline, g *guest, inv *Invocation) error {
	startMark := inv.Clock.Now()
	hv := b.env.HV
	if snap := g.fn.osSnap; snap != nil {
		vm, err := hv.Restore(snap, vmm.RestoreOptions{}, inv.Clock)
		if err != nil {
			return err
		}
		g.vm, g.id, g.space = vm, vm.ID, vm.Space()
		if err := hv.SetupNetwork(vm, snap.GuestIP, inv.Clock); err != nil {
			return err
		}
	} else {
		vm, err := hv.CreateVM(vmm.DefaultConfig(), inv.Clock)
		if err != nil {
			return err
		}
		g.vm, g.id, g.space = vm, vm.ID, vm.Space()
		if err := vm.BootKernel(inv.Clock); err != nil {
			return err
		}
		if err := hv.SetupNetwork(vm, "192.168.0.2", inv.Clock); err != nil {
			return err
		}
	}
	if err := b.startRuntime(g, inv, g.vm.FS, false); err != nil {
		return err
	}
	if err := g.vm.AllocGuest(mem.KindRuntime, g.rt.Model.RuntimeImageBytes); err != nil {
		return err
	}
	if err := g.vm.AllocGuest(mem.KindLibrary, g.rt.Model.LibraryBytes); err != nil {
		return err
	}
	inv.Breakdown.Add(trace.PhaseStartup, "vm-boot+runtime", inv.Clock.Since(startMark))
	return nil
}

func (firecrackerKind) resume(_ *baseline, g *guest, inv *Invocation) error {
	warmMark := inv.Clock.Now()
	if err := g.vm.ResumeWarm(inv.Clock); err != nil {
		return err
	}
	inv.Breakdown.Add(trace.PhaseStartup, "vm-resume", inv.Clock.Since(warmMark))
	return nil
}

func (firecrackerKind) park(g *guest) error { return g.vm.Pause() }

// stop also serves a cold start that failed before its VM existed.
func (firecrackerKind) stop(g *guest) error {
	if g.vm == nil {
		return nil
	}
	return g.vm.Stop()
}

// dirty: snapshot-mapped pages CoW-split first, the rest is fresh heap.
func (firecrackerKind) dirty(g *guest) {
	g.vm.DirtyDuringExecution(g.rt.Model.HeapPerInvokeBytes + g.fn.DirtyBytesPerRun)
}
