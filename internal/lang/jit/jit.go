// Package jit is FaaSLang's optimizing tier: the policy and accounting
// of tier-up, not a second executor. Compiling a function records the
// entry type guards derived from its runtime profile; the VM then runs
// the function's one compiled form (vm.Function) in the JIT tier
// whenever the arguments pass those guards, and de-optimizes the call to
// the interpreter tier of the same code when they do not — the
// V8/Numba behaviour the paper's §6 discusses.
//
// The engine implements vm.JITBackend: the VM reports calls and
// interpreted loop back-edges, and the engine tiers functions up
// according to a per-runtime policy (Node.js compiles any hot function;
// Python compiles only @jit-annotated functions, mirroring Numba).
// Compilation cost and de-optimization penalties are charged through
// hooks so the simulation layer can account virtual time and JIT code
// memory.
package jit

import (
	"maps"
	"slices"
	"sync"

	"repro/internal/lang"
	"repro/internal/lang/vm"
)

// Config controls tier-up policy and cost accounting.
type Config struct {
	// CallThreshold tiers a function up once it has been called this
	// many times. Zero or negative disables call-count tier-up.
	CallThreshold int64
	// LoopThreshold tiers a function up once its loops have executed
	// this many back-edges. Zero or negative disables loop tier-up.
	LoopThreshold int64
	// AnnotatedOnly restricts compilation to functions decorated with
	// @jit — the Numba model used for the Python runtime personality.
	AnnotatedOnly bool
	// OnCompile is invoked when a function is compiled, with its
	// op count (the basis for virtual compile time
	// and machine-code size accounting). May be nil.
	OnCompile func(fn *vm.Function, instructions int)
	// OnDeopt is invoked when compiled code bails out to the
	// interpreter. May be nil.
	OnDeopt func(fn *vm.Function)
}

// Engine is a per-guest JIT compiler. Its code cache maps each compiled
// function to the entry guards it was specialized for.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	cache    map[*vm.Function][]lang.Type
	codeSize int64
	compiles int64
}

// NewEngine returns an engine with the given policy.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, cache: make(map[*vm.Function][]lang.Type)}
}

// bytesPerInstr models the machine-code expansion factor of one op
// (x86-64 TurboFan/Numba output averages tens of bytes per bytecode op).
const bytesPerInstr = 48

// CodeSize returns the total bytes of simulated machine code resident in
// the engine's code cache.
func (e *Engine) CodeSize() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.codeSize
}

// Compiles returns how many functions the engine has compiled.
func (e *Engine) Compiles() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compiles
}

// CompiledFunctions returns the names of functions currently in the
// code cache in name order, so an install report is the same run to
// run.
func (e *Engine) CompiledFunctions() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.cache))
	for fn := range e.cache {
		names = append(names, fn.Name)
	}
	slices.Sort(names)
	return names
}

// Lookup implements vm.JITBackend.
func (e *Engine) Lookup(fn *vm.Function) ([]lang.Type, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	guards, ok := e.cache[fn]
	return guards, ok
}

// OnCall implements vm.JITBackend: tier up when the call threshold hits.
func (e *Engine) OnCall(v *vm.VM, fn *vm.Function, prof *vm.Profile) {
	if e.cfg.CallThreshold > 0 && prof.Calls >= e.cfg.CallThreshold {
		e.compile(v, fn, prof)
	}
}

// OnLoopBack implements vm.JITBackend: tier up on hot loops.
func (e *Engine) OnLoopBack(v *vm.VM, fn *vm.Function, prof *vm.Profile) {
	if e.cfg.LoopThreshold > 0 && prof.LoopBackEdges >= e.cfg.LoopThreshold {
		e.compile(v, fn, prof)
	}
}

// OnDeopt implements vm.JITBackend.
func (e *Engine) OnDeopt(v *vm.VM, fn *vm.Function) {
	v.Profile(fn).Deopts++
	if e.cfg.OnDeopt != nil {
		v.Flush() // the hook charges the penalty to the clock
		e.cfg.OnDeopt(fn)
	}
}

// Compile compiles fn (idempotently) with guards from the profile. It is
// called directly by __fireworks_jit to force compilation at install
// time, from the host, while no guest code is running.
func (e *Engine) Compile(fn *vm.Function, prof *vm.Profile) { e.compile(nil, fn, prof) }

// compile is Compile on behalf of v, whose running guest code crossed a
// tier-up threshold (nil when the host asks).
func (e *Engine) compile(v *vm.VM, fn *vm.Function, prof *vm.Profile) {
	if e.cfg.AnnotatedOnly && !fn.HasAnnotation("jit") {
		return
	}
	e.mu.Lock()
	if _, ok := e.cache[fn]; ok {
		e.mu.Unlock()
		return
	}
	// Entry guards: specialize on the profiled signature only when it
	// has been monomorphic so far; otherwise compile a generic version.
	var guards []lang.Type
	if prof != nil && prof.Stable && prof.ArgTypes != nil {
		guards = append([]lang.Type(nil), prof.ArgTypes...)
	}
	e.cache[fn] = guards
	e.codeSize += int64(fn.Ops() * bytesPerInstr)
	e.compiles++
	e.mu.Unlock()
	if e.cfg.OnCompile != nil {
		if v != nil {
			v.Flush() // the hook charges compile time to the clock
		}
		e.cfg.OnCompile(fn, fn.Ops())
	}
}

// CloneWithCache returns a new engine that starts with this engine's
// code cache (guards are immutable and safely shared) but its own
// policy and accounting hooks. This is how a restored VM snapshot
// "contains" the install-time JITted code: each clone gets an engine
// pre-populated with the snapshot's machine code, with zero compiles
// charged.
func (e *Engine) CloneWithCache(cfg Config) *Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	clone := NewEngine(cfg)
	maps.Copy(clone.cache, e.cache)
	clone.codeSize = e.codeSize
	// The clone holds the same compiled functions; the count drives
	// resident JIT-code accounting (Numba module overhead), so it
	// travels with the cache.
	clone.compiles = e.compiles
	return clone
}

var _ vm.JITBackend = (*Engine)(nil)
