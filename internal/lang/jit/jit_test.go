package jit_test

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/lang/bytecode"
	"repro/internal/lang/jit"
	"repro/internal/lang/vm"
)

type tierMeter struct {
	perTier map[vm.Tier]int
}

func (m *tierMeter) Charge(counts *vm.OpCounts) {
	if m.perTier == nil {
		m.perTier = make(map[vm.Tier]int)
	}
	for tier, cats := range counts {
		for _, n := range cats {
			m.perTier[vm.Tier(tier)] += n
		}
	}
}

func setup(t *testing.T, src string, cfg jit.Config) (*vm.VM, *jit.Engine, *tierMeter) {
	t.Helper()
	mod, err := bytecode.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	meter := &tierMeter{}
	v := vm.New(meter)
	engine := jit.NewEngine(cfg)
	v.JIT = engine
	if _, err := v.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	return v, engine, meter
}

const hotSrc = `
func hot(n) {
  let total = 0;
  let i = 0;
  while (i < n) {
    i = i + 1;
    total = total + i * i;
  }
  return total;
}
`

func wantHot(n int64) int64 {
	var total int64
	for i := int64(1); i <= n; i++ {
		total += i * i
	}
	return total
}

func TestTierUpByCallCount(t *testing.T) {
	v, engine, meter := setup(t, hotSrc, jit.Config{CallThreshold: 3})
	fn := v.Globals["hot"].(*bytecode.Closure)
	for i := 0; i < 5; i++ {
		got, err := v.CallValue(fn, []lang.Value{int64(50)})
		if err != nil {
			t.Fatal(err)
		}
		if got != wantHot(50) {
			t.Fatalf("call %d: got %v, want %v", i, got, wantHot(50))
		}
	}
	if engine.Compiles() != 1 {
		t.Fatalf("Compiles = %d, want 1", engine.Compiles())
	}
	if meter.perTier[vm.TierJIT] == 0 {
		t.Fatal("no JIT-tier charges after tier-up")
	}
}

func TestTierUpByLoopThreshold(t *testing.T) {
	v, engine, _ := setup(t, hotSrc, jit.Config{LoopThreshold: 100})
	fn := v.Globals["hot"].(*bytecode.Closure)
	// One long-running call crosses the loop threshold mid-execution;
	// the compiled code is used from the *next* call (no OSR).
	if _, err := v.CallValue(fn, []lang.Value{int64(500)}); err != nil {
		t.Fatal(err)
	}
	if engine.Compiles() != 1 {
		t.Fatalf("Compiles = %d, want 1 after hot loop", engine.Compiles())
	}
	got, err := v.CallValue(fn, []lang.Value{int64(500)})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantHot(500) {
		t.Fatalf("jitted result = %v, want %v", got, wantHot(500))
	}
}

func TestInterpAndJITAgree(t *testing.T) {
	// The same source must produce identical results in both tiers.
	src := hotSrc + `
func mix(n) {
  let l = [];
  let i = 0;
  while (i < n) {
    l = l + [i * 2];
    i = i + 1;
  }
  let m = {"sum": 0};
  for (x in l) { m["sum"] = m["sum"] + x; }
  return m.sum;
}
`
	interp, _, _ := setup(t, src, jit.Config{})
	jitted, engine, _ := setup(t, src, jit.Config{CallThreshold: 1})
	for _, fname := range []string{"hot", "mix"} {
		for _, n := range []int64{0, 1, 7, 40} {
			a, err := interp.CallValue(interp.Globals[fname], []lang.Value{n})
			if err != nil {
				t.Fatal(err)
			}
			b, err := jitted.CallValue(jitted.Globals[fname], []lang.Value{n})
			if err != nil {
				t.Fatal(err)
			}
			if !lang.Equal(a, b) {
				t.Errorf("%s(%d): interp=%v jit=%v", fname, n, a, b)
			}
		}
	}
	if engine.Compiles() == 0 {
		t.Fatal("JIT never compiled")
	}
}

func TestAnnotatedOnlyPolicy(t *testing.T) {
	src := `
@jit(cache=true)
func fast(n) { return n * 2; }
func slow(n) { return n * 2; }
`
	v, engine, _ := setup(t, src, jit.Config{CallThreshold: 1, AnnotatedOnly: true})
	for i := 0; i < 3; i++ {
		if _, err := v.CallValue(v.Globals["fast"], []lang.Value{int64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := v.CallValue(v.Globals["slow"], []lang.Value{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	names := engine.CompiledFunctions()
	if len(names) != 1 || names[0] != "fast" {
		t.Fatalf("compiled %v, want only [fast]", names)
	}
}

func TestDeoptOnTypeGuardFailure(t *testing.T) {
	src := `func poly(x) { return x + x; }`
	v, engine, _ := setup(t, src, jit.Config{CallThreshold: 1})
	fn := v.Globals["poly"].(*bytecode.Closure)
	// Warm up with ints: profile is monomorphic [int], guards are [int].
	for i := 0; i < 3; i++ {
		if _, err := v.CallValue(fn, []lang.Value{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if engine.Compiles() != 1 {
		t.Fatalf("Compiles = %d", engine.Compiles())
	}
	// A string argument trips the entry guard and de-optimizes; the
	// interpreter still computes the right answer.
	got, err := v.CallValue(fn, []lang.Value{"ab"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "abab" {
		t.Fatalf("poly(\"ab\") = %v", got)
	}
	if v.Profile(fn.Fn).Deopts != 1 {
		t.Fatalf("profile deopts = %d", v.Profile(fn.Fn).Deopts)
	}
}

func TestForceCompile(t *testing.T) {
	// __fireworks_jit-style forced compilation: compile before any call.
	mod, err := bytecode.CompileSource(hotSrc)
	if err != nil {
		t.Fatal(err)
	}
	meter := &tierMeter{}
	v := vm.New(meter)
	var compiled []string
	engine := jit.NewEngine(jit.Config{
		OnCompile: func(fn *bytecode.Function, instrs int) {
			compiled = append(compiled, fn.Name)
			if instrs <= 0 {
				t.Errorf("OnCompile instrs = %d", instrs)
			}
		},
	})
	v.JIT = engine
	if _, err := v.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	fn := v.Globals["hot"].(*bytecode.Closure)
	engine.Compile(fn.Fn, nil) // generic compile, no guards
	if len(compiled) != 1 || compiled[0] != "hot" {
		t.Fatalf("compiled = %v", compiled)
	}
	// First call runs straight in the JIT tier (post-JIT snapshot case).
	got, err := v.CallValue(fn, []lang.Value{int64(10)})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantHot(10) {
		t.Fatalf("got %v", got)
	}
	if meter.perTier[vm.TierInterp] > 5 {
		// The interpreter should not have executed the function body
		// (a few charges can come from module-level code).
		t.Fatalf("interp charges = %d; function should run JITted", meter.perTier[vm.TierInterp])
	}
	if engine.CodeSize() == 0 {
		t.Fatal("CodeSize = 0 after compile")
	}
}

// TestEveryOpcodeInCompiledCode force-compiles a function whose body
// exercises every bytecode opcode the translator handles — literals,
// logicals, unaries, containers, iteration, closures, globals — and
// checks it against the interpreter.
func TestEveryOpcodeInCompiledCode(t *testing.T) {
	src := `
let gCounter = 0;

func kitchenSink(n, s) {
  gCounter = gCounter + 1;            // LOADG/STOREG
  let flag = true && !false;          // TRUE/FALSE/NOT/DUP/JMPF
  let nothing = null;                 // NULL
  let neg = -n;                       // NEG
  let negf = -1.5;                    // float NEG
  let both = (n > 0 || s == "x");     // JMPT
  let l = [n, n * 2, "tail"];         // MKLIST
  let m = {"a": n, "b": {"inner": s}};// MKMAP nested
  m["c"] = l[0] + l[1];               // INDEX/SETIDX int fast path
  m["b"]["inner"] = s + "!";          // generic SETIDX
  l[-1] = "rewritten";                // slow-path list index (negative)
  let total = 0;
  for (x in l) {                      // ITER/NEXT over list
    if (x == "rewritten") { total = total + 1; } else { total = total + x; }
  }
  for (k in m) {                      // ITER over map keys
    if (k == "a") { total = total + 5; } else { total = total + 1; }
  }
  for (ch in "ab") {                  // ITER over string
    if (ch == "a") { total = total + 2; } else { total = total + 3; }
  }
  let i = 0;
  while (i < 3) {                     // LOOP
    i = i + 1;
    if (i == 2) { continue; }
    if (i > 5) { break; }
  }
  // CLOSURE: anonymous functions see globals, not enclosing locals.
  let adder = func(x) { return x + gCounter; };
  total = total + adder(10);
  let quotient = n / 2;               // DIV
  let rem = n % 3;                    // MOD
  let diff = n - 1;                   // SUB (int fast)
  let prod = n * 1.5;                 // MUL (mixed)
  let cmp = 0;
  if (n <= 100 && n >= -100 && n < 1000 && n > -1000) { cmp = 1; } // LTE/GTE/LT/GT
  if (flag && both && nothing == null) { total = total + cmp; }
  return total + quotient + rem + diff + prod + m["c"];
}
`
	check := func(jitted bool, n int64, s string) (any, error) {
		mod, err := bytecode.CompileSource(src)
		if err != nil {
			return nil, err
		}
		v := vm.New(nil)
		engine := jit.NewEngine(jit.Config{})
		v.JIT = engine
		if _, err := v.RunModule(mod); err != nil {
			return nil, err
		}
		if jitted {
			engine.Compile(v.Globals["kitchenSink"].(*bytecode.Closure).Fn, nil)
		}
		return v.CallValue(v.Globals["kitchenSink"], []lang.Value{n, s})
	}
	for _, tc := range []struct {
		n int64
		s string
	}{{4, "x"}, {0, ""}, {-7, "long-string"}, {99, "x"}} {
		iv, ierr := check(false, tc.n, tc.s)
		jv, jerr := check(true, tc.n, tc.s)
		// The function must actually execute — an agreed-upon error
		// would silently gut this test.
		if ierr != nil || jerr != nil {
			t.Fatalf("n=%d s=%q: interp err %v, jit err %v", tc.n, tc.s, ierr, jerr)
		}
		if !lang.Equal(iv, jv) {
			t.Fatalf("n=%d s=%q: interp %v, jit %v", tc.n, tc.s, iv, jv)
		}
	}
	// With "len" absent, the compiled global load must fail identically.
	mod, err := bytecode.CompileSource(`func f() { return missingGlobal; }`)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(nil)
	engine := jit.NewEngine(jit.Config{})
	v.JIT = engine
	if _, err := v.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	engine.Compile(v.Globals["f"].(*bytecode.Closure).Fn, nil)
	if _, err := v.CallValue(v.Globals["f"], nil); err == nil ||
		!strings.Contains(err.Error(), "undefined variable") {
		t.Fatalf("jit undefined-global err = %v", err)
	}
}

// TestJITRuntimeErrorsMatchInterpreter checks the compiled tier's error
// paths (division by zero, bad index, non-iterable) fail with the
// interpreter's error text.
func TestJITRuntimeErrorsMatchInterpreter(t *testing.T) {
	cases := []string{
		`func f() { return 1 / 0; }`,
		`func f() { return 5 % 0; }`,
		`func f() { let l = [1]; return l[9]; }`,
		`func f() { let l = [1]; l[9] = 2; }`,
		`func f() { for (x in 42) {} }`,
		`func f() { return -"s"; }`,
		`func f() { return {"a": 1}[5]; }`,
		`func f() { let x = 5; return x(); }`,
	}
	for _, src := range cases {
		run := func(jitted bool) error {
			mod, err := bytecode.CompileSource(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			v := vm.New(nil)
			engine := jit.NewEngine(jit.Config{})
			v.JIT = engine
			if _, err := v.RunModule(mod); err != nil {
				return err
			}
			if jitted {
				engine.Compile(v.Globals["f"].(*bytecode.Closure).Fn, nil)
			}
			_, err = v.CallValue(v.Globals["f"], nil)
			return err
		}
		ierr, jerr := run(false), run(true)
		if ierr == nil || jerr == nil {
			t.Errorf("%s: expected both tiers to fail (interp %v, jit %v)", src, ierr, jerr)
		} else if ierr.Error() != jerr.Error() {
			t.Errorf("%s: interp error %q, jit error %q", src, ierr, jerr)
		}
	}
}

func TestRecursionInJITTedCode(t *testing.T) {
	src := `func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }`
	v, engine, _ := setup(t, src, jit.Config{CallThreshold: 2})
	fn := v.Globals["fib"].(*bytecode.Closure)
	got, err := v.CallValue(fn, []lang.Value{int64(15)})
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(610) {
		t.Fatalf("fib(15) = %v", got)
	}
	if engine.Compiles() != 1 {
		t.Fatalf("Compiles = %d", engine.Compiles())
	}
}

// chargeLog records every Charge call the VM makes.
type chargeLog struct {
	calls []vm.OpCounts
}

func (m *chargeLog) Charge(counts *vm.OpCounts) {
	m.calls = append(m.calls, *counts)
}

func (m *chargeLog) total() (n int64) {
	for _, c := range m.calls {
		for _, cats := range c {
			for _, k := range cats {
				n += int64(k)
			}
		}
	}
	return n
}

// TestChargesArePerFlushNotPerOp: a call that reaches no native and no
// tier change hands its ops to the meter once, when it returns — one
// Charge, in one tier, worth every step.
func TestChargesArePerFlushNotPerOp(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		mod, err := bytecode.CompileSource(hotSrc)
		if err != nil {
			t.Fatal(err)
		}
		meter := &chargeLog{}
		v := vm.New(meter)
		engine := jit.NewEngine(jit.Config{})
		v.JIT = engine
		if _, err := v.RunModule(mod); err != nil {
			t.Fatal(err)
		}
		wantTier := vm.TierInterp
		if compiled {
			engine.Compile(v.Globals["hot"].(*bytecode.Closure).Fn, nil)
			wantTier = vm.TierJIT
		}
		meter.calls = nil
		before := v.Steps()
		got, err := v.CallValue(v.Globals["hot"], []lang.Value{int64(1000)})
		if err != nil || got != wantHot(1000) {
			t.Fatalf("compiled=%v: hot(1000) = %v, %v", compiled, got, err)
		}
		if len(meter.calls) != 1 {
			t.Fatalf("compiled=%v: %d charges, want 1", compiled, len(meter.calls))
		}
		counts := meter.calls[0]
		if counts[1-wantTier] != [bytecode.NumCategories]int{} {
			t.Errorf("compiled=%v: charge outside tier %s: %+v", compiled, wantTier, counts)
		}
		if counts[wantTier][bytecode.CatArith] == 0 || counts[wantTier][bytecode.CatOther] == 0 {
			t.Errorf("compiled=%v: charge %+v misses a category the loop executes", compiled, counts)
		}
		if steps := v.Steps() - before; meter.total() != steps || steps < 10_000 {
			t.Errorf("compiled=%v: charged %d ops, executed %d", compiled, meter.total(), steps)
		}
	}
}

// TestErrorsStillChargeExecutedOps: whichever way a call ends, every op
// that ran before has been charged and nothing is left pending.
func TestErrorsStillChargeExecutedOps(t *testing.T) {
	const src = `
func spin() { let i = 0; while (true) { i = i + 1; } }
func bad(n) { let i = 0; while (i < n) { i = i + 1; } return i - "x"; }
func outer(n) { return bad(n) + 1; }
`
	for _, compiled := range []bool{false, true} {
		mod, err := bytecode.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		meter := &chargeLog{}
		v := vm.New(meter)
		engine := jit.NewEngine(jit.Config{})
		v.JIT = engine
		if _, err := v.RunModule(mod); err != nil {
			t.Fatal(err)
		}
		if compiled {
			for _, fn := range mod.Functions {
				engine.Compile(fn, nil)
			}
		}
		settled := func(what string) {
			t.Helper()
			n := len(meter.calls)
			if v.Flush(); len(meter.calls) != n {
				t.Errorf("compiled=%v: ops still pending after %s: %+v", compiled, what, meter.calls[n:])
			}
		}
		settled("module load")

		// A type error three frames deep: the failing op itself was
		// booked before it ran, as the per-instruction meter did.
		meter.calls = nil
		before := v.Steps()
		if _, err := v.CallValue(v.Globals["outer"], []lang.Value{int64(100)}); err == nil {
			t.Fatalf("compiled=%v: outer returned no error", compiled)
		}
		if steps := v.Steps() - before; meter.total() != steps || steps < 500 {
			t.Errorf("compiled=%v: type error: charged %d ops, executed %d", compiled, meter.total(), steps)
		}
		settled("a type error")

		// The step limit: the op that would exceed it never runs and is
		// not charged.
		meter.calls = nil
		before = v.Steps()
		v.MaxSteps = before + 1000
		if _, err := v.CallValue(v.Globals["spin"], nil); err == nil || !strings.Contains(err.Error(), "step limit") {
			t.Fatalf("compiled=%v: spin: err = %v", compiled, err)
		}
		if meter.total() != 1000 {
			t.Errorf("compiled=%v: step limit: charged %d ops, want 1000", compiled, meter.total())
		}
		settled("the step limit")
	}
}
