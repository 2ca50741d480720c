package runtime

import (
	"time"

	"repro/internal/lang/bytecode"
)

// CostModel calibrates one language runtime's virtual-time behaviour.
// All values are documented against the measurements the paper reports;
// EXPERIMENTS.md records how the resulting figures compare.
//
// The per-op costs make the *ratios* between execution tiers come out of
// really executing the workload: a benchmark's latency is
// (ops executed in tier T, category C) x Cost[T][C] summed over the run,
// so a loop-heavy numeric workload sees the full interpreter/JIT gap
// while an I/O workload's execution time is dominated by the sandbox I/O
// costs instead — exactly the behaviour Figures 6, 7, and 11 show.
type CostModel struct {
	// InterpCost and JITCost are per-bytecode-op costs, indexed by
	// bytecode.Category.
	InterpCost [bytecode.NumCategories]time.Duration
	JITCost    [bytecode.NumCategories]time.Duration

	// CompilePerInstr is the JIT compilation cost per bytecode
	// instruction; DeoptPenalty is charged on each guard bailout.
	CompilePerInstr time.Duration
	DeoptPenalty    time.Duration

	// Tier-up policy (mirrors jit.Config).
	CallThreshold int64
	LoopThreshold int64
	AnnotatedOnly bool

	// RuntimeBoot is the cost of starting the language runtime process
	// (node / python binary start to REPL-ready). ModuleLoadPerInstr
	// models parsing+loading the application per bytecode instruction,
	// and PackageInstall the npm/pip step paid once at function
	// install time.
	RuntimeBoot        time.Duration
	ModuleLoadPerInstr time.Duration
	PackageInstall     time.Duration

	// Memory footprint model (bytes).
	RuntimeImageBytes  uint64 // runtime text+data after boot
	LibraryBytes       uint64 // loaded packages/modules
	HeapPerInvokeBytes uint64 // heap dirtied by one invocation
	// JITLibraryExtraBytes is additional library weight pulled in only
	// when the JIT is actually used (numba + llvmlite for Python; zero
	// for Node, whose JIT is part of V8).
	JITLibraryExtraBytes uint64
	// JITCodeDuplication multiplies resident JIT code size. 1 for V8
	// (code objects are shared); >1 for Numba, which duplicates JITted
	// functions across LLVM MCJIT modules (paper §5.5.2, [35]).
	JITCodeDuplication int
	// JITModuleOverheadBytes is per-compiled-function resident overhead
	// of the JIT's module machinery (LLVM MCJIT modules for Numba). It
	// is also re-dirtied on every snapshot resume (MCJIT re-linking),
	// which is why the paper sees no post-JIT memory win for Python.
	JITModuleOverheadBytes uint64
}

// Lang selects a runtime personality.
type Lang string

// Supported runtime personalities.
const (
	LangNode   Lang = "nodejs"
	LangPython Lang = "python"
)

// ModelFor returns the calibrated cost model for a language.
//
// Calibration notes (targets from the paper):
//   - Node.js V8 tiers up quickly, so warm compute benchmarks only gain
//     25-38% from post-JIT snapshots (Fig. 6a) -> modest interp/JIT gap
//     and aggressive tier-up thresholds.
//   - CPython never JITs; Numba-compiled code is 15-80x faster on
//     numeric kernels (Fig. 7a-b) -> large interp/JIT gap, AnnotatedOnly
//     compilation on first call.
//   - Numba compilation is slow (~100ms+ per function), which is why the
//     paper pays it at install time; V8 compiles in microseconds.
//   - npm install dominates Node install time (paper §5.1).
func ModelFor(l Lang) CostModel {
	switch l {
	case LangNode:
		return CostModel{
			InterpCost: [bytecode.NumCategories]time.Duration{
				bytecode.CatArith: 14 * time.Nanosecond,
				bytecode.CatIndex: 22 * time.Nanosecond,
				bytecode.CatCall:  90 * time.Nanosecond,
				bytecode.CatOther: 9 * time.Nanosecond,
			},
			JITCost: [bytecode.NumCategories]time.Duration{
				bytecode.CatArith: 4 * time.Nanosecond,
				bytecode.CatIndex: 7 * time.Nanosecond,
				bytecode.CatCall:  35 * time.Nanosecond,
				bytecode.CatOther: 3 * time.Nanosecond,
			},
			CompilePerInstr:        2 * time.Microsecond,
			DeoptPenalty:           25 * time.Microsecond,
			CallThreshold:          4,
			LoopThreshold:          128,
			AnnotatedOnly:          false,
			RuntimeBoot:            260 * time.Millisecond,
			ModuleLoadPerInstr:     300 * time.Nanosecond,
			PackageInstall:         3200 * time.Millisecond,
			RuntimeImageBytes:      64 << 20,
			LibraryBytes:           46 << 20,
			HeapPerInvokeBytes:     9 << 20,
			JITLibraryExtraBytes:   0, // V8 is the runtime; no extra JIT libs
			JITCodeDuplication:     1,
			JITModuleOverheadBytes: 0, // V8 code objects are compact and shared
		}
	case LangPython:
		return CostModel{
			InterpCost: [bytecode.NumCategories]time.Duration{
				bytecode.CatArith: 110 * time.Nanosecond,
				bytecode.CatIndex: 230 * time.Nanosecond,
				bytecode.CatCall:  550 * time.Nanosecond,
				bytecode.CatOther: 55 * time.Nanosecond,
			},
			JITCost: [bytecode.NumCategories]time.Duration{
				bytecode.CatArith: 3 * time.Nanosecond,
				bytecode.CatIndex: 1 * time.Nanosecond,
				bytecode.CatCall:  40 * time.Nanosecond,
				bytecode.CatOther: 2 * time.Nanosecond,
			},
			CompilePerInstr:        45 * time.Microsecond,
			DeoptPenalty:           60 * time.Microsecond,
			CallThreshold:          1, // Numba compiles annotated funcs on first call
			LoopThreshold:          0,
			AnnotatedOnly:          true,
			RuntimeBoot:            130 * time.Millisecond,
			ModuleLoadPerInstr:     500 * time.Nanosecond,
			PackageInstall:         2100 * time.Millisecond,
			RuntimeImageBytes:      42 << 20,
			LibraryBytes:           24 << 20, // plain CPython stdlib
			HeapPerInvokeBytes:     7 << 20,
			JITLibraryExtraBytes:   34 << 20, // numba + llvmlite, JIT users only
			JITCodeDuplication:     28,       // LLVM MCJIT module duplication
			JITModuleOverheadBytes: 24 << 20, // per-function MCJIT module weight
		}
	default:
		panic("runtime: unknown language " + string(l))
	}
}
