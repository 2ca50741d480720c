// Package runtime implements the simulated language runtimes that run
// inside guests: a "nodejs" personality (auto-tiering JIT, V8-style) and
// a "python" personality (pure interpreter unless functions carry the
// @jit Numba annotation). A Runtime owns a FaaSLang VM, a JIT engine
// configured with the language's tier-up policy, and a calibrated cost
// model; every instruction executed and every compile charges virtual
// time to the runtime's clock.
package runtime

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
	"repro/internal/lang/jit"
	"repro/internal/lang/vm"
	"repro/internal/vclock"
)

// Runtime is one guest's language runtime instance.
type Runtime struct {
	Lang   Lang
	Model  CostModel
	VM     *vm.VM
	Engine *jit.Engine
	Clock  *vclock.Clock

	// Stdout collects guest print output.
	Stdout bytes.Buffer

	module      *bytecode.Module
	booted      bool
	moduleBytes uint64
}

// meter charges executed ops' virtual time according to the cost model.
// It reads the runtime's current clock on every charge, because a warm
// sandbox serves many invocations and each invocation brings its own
// clock (see SetClock).
type meter struct {
	rt *Runtime
}

// Charge implements vm.CostMeter: one guest-ops charge per flush, worth
// every op the flush hands over.
func (m *meter) Charge(counts *vm.OpCounts) {
	var d time.Duration
	for cat, n := range counts[vm.TierInterp] {
		d += m.rt.Model.InterpCost[cat] * time.Duration(n)
	}
	for cat, n := range counts[vm.TierJIT] {
		d += m.rt.Model.JITCost[cat] * time.Duration(n)
	}
	m.rt.Clock.Charge("guest-ops", d)
}

// New creates a runtime of the given language charging time to clock.
// The runtime is not booted yet; call Boot.
func New(l Lang, clock *vclock.Clock) *Runtime {
	model := ModelFor(l)
	r := &Runtime{Lang: l, Model: model, Clock: clock}
	r.VM = vm.New(&meter{rt: r})
	r.Engine = jit.NewEngine(jit.Config{
		CallThreshold: model.CallThreshold,
		LoopThreshold: model.LoopThreshold,
		AnnotatedOnly: model.AnnotatedOnly,
		OnCompile: func(fn *bytecode.Function, instrs int) {
			r.Clock.Charge("jit-compile", r.Model.CompilePerInstr*time.Duration(instrs))
		},
		OnDeopt: func(fn *bytecode.Function) {
			r.Clock.Charge("jit-deopt", r.Model.DeoptPenalty)
		},
	})
	r.VM.JIT = r.Engine
	r.installBuiltins()
	return r
}

// SetClock redirects all further charges to a new clock. Warm sandboxes
// call this at the start of each invocation — between guest calls, when
// the VM has flushed every op it counted to the old clock.
func (r *Runtime) SetClock(clock *vclock.Clock) { r.Clock = clock }

// Boot charges the runtime's process start cost. It must be called once
// before loading a module.
func (r *Runtime) Boot() {
	if r.booted {
		return
	}
	r.Clock.Charge("runtime-boot", r.Model.RuntimeBoot)
	r.booted = true
}

// InstallNatives binds host-provided native functions (sandbox I/O, the
// Fireworks snapshot/parameter bridge, database clients) into the guest
// globals. Later bindings of the same name win.
func (r *Runtime) InstallNatives(natives map[string]*lang.Native) {
	for name, fn := range natives {
		r.VM.Globals[name] = fn
	}
}

// LoadModule parses, compiles, and executes the top level of a FaaSLang
// module, charging module-load time proportional to code size.
func (r *Runtime) LoadModule(src string) error {
	if !r.booted {
		return fmt.Errorf("runtime: LoadModule before Boot")
	}
	mod, err := bytecode.CompileSource(src)
	if err != nil {
		return fmt.Errorf("runtime: load: %w", err)
	}
	r.Clock.Charge("module-load", r.Model.ModuleLoadPerInstr*time.Duration(mod.TotalInstructions()))
	if _, err := r.VM.RunModule(mod); err != nil {
		return fmt.Errorf("runtime: module init: %w", err)
	}
	r.module = mod
	r.moduleBytes = uint64(mod.TotalInstructions()) * 40 // bytecode + AST footprint
	return nil
}

// Call invokes a global function by name.
func (r *Runtime) Call(name string, args ...lang.Value) (lang.Value, error) {
	fn, ok := r.VM.Globals[name]
	if !ok {
		return nil, fmt.Errorf("runtime: no function %q", name)
	}
	return r.VM.CallValue(fn, args)
}

// ForceJITAll compiles every function of the loaded module that the
// language's policy allows (all of them for Node, @jit-annotated ones
// for Python/Numba), charging compilation time. This is what the
// generated __fireworks_jit() driver triggers during the install phase.
// It returns the number of functions compiled.
func (r *Runtime) ForceJITAll() int {
	if r.module == nil {
		return 0
	}
	n := 0
	for _, fn := range r.module.Functions {
		if r.Model.AnnotatedOnly && !fn.HasAnnotation("jit") {
			continue
		}
		before := r.Engine.Compiles()
		// Compile with guards from the current profile (a priming call
		// may have established one).
		r.Engine.Compile(fn, r.VM.Profile(fn))
		if r.Engine.Compiles() > before {
			n++
		}
	}
	return n
}

// JITCodeBytes returns the resident machine-code size including the
// language's duplication factor and per-function module overhead
// (Numba's MCJIT modules; ~zero beyond raw code for V8).
func (r *Runtime) JITCodeBytes() uint64 {
	dup := r.Model.JITCodeDuplication
	if dup < 1 {
		dup = 1
	}
	return uint64(r.Engine.CodeSize())*uint64(dup) +
		uint64(r.Engine.Compiles())*r.Model.JITModuleOverheadBytes
}

// SnapshotTemplate is the language-level guest state captured inside a
// VM snapshot: the globals (natives excluded — the host re-binds them on
// restore, just as a resumed clone re-reads MMDS), the JIT engine whose
// code cache records what was compiled, the loaded module, and its
// translation — the post-JIT code every revival runs, built once per
// installed code version and shared by all of them.
type SnapshotTemplate struct {
	Lang        Lang
	Globals     map[string]lang.Value
	Engine      *jit.Engine
	Module      *bytecode.Module
	Program     *vm.Program
	ModuleBytes uint64
}

// SnapshotTemplate captures the runtime's current state for inclusion in
// a VM snapshot. Mutable containers are deep-copied so later execution
// in the source VM cannot alter the snapshot.
func (r *Runtime) SnapshotTemplate() (*SnapshotTemplate, error) {
	globals, err := lang.DeepCopyGlobals(r.VM.Globals, true)
	if err != nil {
		return nil, fmt.Errorf("runtime: snapshot template: %w", err)
	}
	return &SnapshotTemplate{
		Lang:        r.Lang,
		Globals:     globals,
		Engine:      r.Engine,
		Module:      r.module,
		Program:     r.VM.Program,
		ModuleBytes: r.moduleBytes,
	}, nil
}

// NewFromSnapshot reconstitutes a runtime from a snapshot template at
// the resume point: already booted, module loaded, JITted code in the
// code cache — with zero virtual time charged, because restoring a
// memory snapshot pays only the restore cost (charged by the
// hypervisor), not boot/load/JIT costs. Each restored runtime gets its
// own copy-on-write view of the globals and its own engine, and shares
// the template's translated code.
func NewFromSnapshot(t *SnapshotTemplate, clock *vclock.Clock) (*Runtime, error) {
	model := ModelFor(t.Lang)
	r := &Runtime{Lang: t.Lang, Model: model, Clock: clock, booted: true,
		module: t.Module, moduleBytes: t.ModuleBytes}
	r.VM = vm.New(&meter{rt: r})
	// Room for the builtins, the template's globals and a host's natives
	// (a dozen), so a revival's inserts do not regrow the map.
	r.VM.Globals = make(map[string]lang.Value, len(pureBuiltins)+2+len(t.Globals)+16)
	r.VM.Program = t.Program
	r.Engine = t.Engine.CloneWithCache(jit.Config{
		CallThreshold: model.CallThreshold,
		LoopThreshold: model.LoopThreshold,
		AnnotatedOnly: model.AnnotatedOnly,
		OnCompile: func(fn *bytecode.Function, instrs int) {
			r.Clock.Charge("jit-compile", r.Model.CompilePerInstr*time.Duration(instrs))
		},
		OnDeopt: func(fn *bytecode.Function) {
			r.Clock.Charge("jit-deopt", r.Model.DeoptPenalty)
		},
	})
	r.VM.JIT = r.Engine
	r.installBuiltins()
	globals, err := lang.DeepCopyGlobals(t.Globals, false)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}
	for k, v := range globals {
		r.VM.Globals[k] = v
	}
	return r, nil
}

// FootprintBytes describes the runtime's memory regions for the guest
// memory model.
type FootprintBytes struct {
	RuntimeImage uint64
	Libraries    uint64
	ModuleCode   uint64
	JITCode      uint64
}

// Footprint returns the current memory footprint components. Library
// weight includes the JIT toolchain (numba/llvmlite) once the JIT has
// actually compiled something.
func (r *Runtime) Footprint() FootprintBytes {
	libs := r.Model.LibraryBytes
	if r.Engine.Compiles() > 0 {
		libs += r.Model.JITLibraryExtraBytes
	}
	return FootprintBytes{
		RuntimeImage: r.Model.RuntimeImageBytes,
		Libraries:    libs,
		ModuleCode:   r.moduleBytes,
		JITCode:      r.JITCodeBytes(),
	}
}
