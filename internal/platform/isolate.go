package platform

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/runtime"
	"repro/internal/sandbox"
	"repro/internal/trace"
)

// isolateKind models Cloudflare Workers (Table 1's "Low (runtime)"
// isolation row): hundreds of V8 isolates inside one long-running
// runtime process. Start-up is creating an isolate (~ms), and memory
// efficiency comes from process sharing — every isolate maps the same
// runtime image and standard-library pages; only per-function module
// code and heap are private. The price is the weakest isolation level:
// all tenants share one process and one kernel.
//
// The paper lists this design in Table 1 but does not evaluate it
// quantitatively; this implementation exists so the whole matrix is
// runnable. Only Node.js is supported (V8 isolates are a JavaScript
// mechanism), and function chains are not (workers call each other over
// HTTP in reality, which the paper's chain semantics do not cover).
type isolateKind struct {
	processGuest
	// processImage is the single runtime process's shared pages
	// (runtime text + stdlib), mapped by every isolate.
	processImage *mem.Region
}

// NewIsolate returns the V8-isolate (Cloudflare Workers-style) runtime
// sandbox platform.
func NewIsolate(env *Env) Platform {
	model := runtime.ModelFor(runtime.LangNode)
	return newBaseline(env, "isolate", sandbox.ClassIsolate, 0, isolateKind{
		processImage: env.Mem.NewRegion("v8-process", mem.KindRuntime,
			mem.PagesFor(model.RuntimeImageBytes+model.LibraryBytes)),
	})
}

func (isolateKind) install(_ *baseline, fn *deployed, _ *InstallReport) error {
	if fn.Lang != runtime.LangNode {
		return fmt.Errorf("isolate: only nodejs functions run in V8 isolates, got %q", fn.Lang)
	}
	return nil
}

// cold is a new isolate in the already-running process. The runtime
// binary is warm, so only isolate creation and module load are paid —
// no process boot.
func (k isolateKind) cold(b *baseline, g *guest, inv *Invocation) error {
	inv.ChargeStartup("isolate-create", b.profile.ColdCreate)
	g.id = b.newID()
	g.space = b.env.Mem.NewSpace(g.id)
	g.space.MapRegion(k.processImage) // process sharing: the whole point
	g.space.AllocPrivate(mem.KindAnon, mem.PagesFor(b.profile.InfraBytes))

	// Workers have no real filesystem; give each isolate a private
	// scratch FS so file natives still behave.
	loadMark := inv.Clock.Now()
	if err := b.startRuntime(g, inv, fs.NewMemFS(), true); err != nil {
		return err
	}
	inv.Breakdown.Add(trace.PhaseStartup, "module-load", inv.Clock.Since(loadMark))
	return nil
}

func (isolateKind) resume(b *baseline, _ *guest, inv *Invocation) error {
	inv.ChargeStartup("isolate-resume", b.profile.WarmResume)
	return nil
}

// dirty: isolates have small private heaps (V8 heap limits per worker);
// the process image stays shared.
func (isolateKind) dirty(g *guest) {
	g.space.AllocPrivate(mem.KindHeap, mem.PagesFor(2<<20+g.fn.DirtyBytesPerRun))
}
