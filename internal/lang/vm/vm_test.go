package vm_test

import (
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/lang/vm"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// run compiles src, executes its module top level, and calls fn(args...)
// if fn is non-empty.
func run(t *testing.T, src, fn string, args ...lang.Value) lang.Value {
	t.Helper()
	v, val, err := tryRun(src, fn, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	_ = v
	return val
}

func tryRun(src, fn string, args ...lang.Value) (*vm.VM, lang.Value, error) {
	mod, err := vm.CompileSource(src)
	if err != nil {
		return nil, nil, err
	}
	v := vm.New(nil)
	if _, err := v.RunModule(mod); err != nil {
		return nil, nil, err
	}
	if fn == "" {
		return v, nil, nil
	}
	val, err := v.CallValue(v.Globals[fn], args)
	return v, val, err
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want lang.Value
	}{
		{"1 + 2", int64(3)},
		{"7 - 10", int64(-3)},
		{"6 * 7", int64(42)},
		{"7 / 2", int64(3)},
		{"7 % 3", int64(1)},
		{"1.5 + 2", float64(3.5)},
		{"3 * 1.5", float64(4.5)},
		{"-5 + 2", int64(-3)},
		{"2 < 3", true},
		{"2 >= 3", false},
		{"1 == 1.0", true},
		{"1 != 2", true},
		{"\"a\" + \"b\"", "ab"},
		{"\"n=\" + 42", "n=42"},
		{"true && false", false},
		{"true || false", true},
		{"!true", false},
	}
	for _, tc := range cases {
		src := "func f() { return " + tc.expr + "; }"
		got := run(t, src, "f")
		if !lang.Equal(got, tc.want) {
			t.Errorf("%s = %v (%T), want %v", tc.expr, got, got, tc.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
let hits = 0;
func bump() { hits = hits + 1; return true; }
func f() {
  let a = false && bump();
  let b = true || bump();
  return a == false && b == true;
}
`
	v, val, err := tryRun(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	if val != true {
		t.Fatalf("short-circuit result = %v", val)
	}
	if hits := v.Globals["hits"]; hits != int64(0) {
		t.Fatalf("bump ran %v times; short-circuit failed", hits)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
func sumTo(n) {
  let total = 0;
  let i = 1;
  while (i <= n) {
    total = total + i;
    i = i + 1;
  }
  return total;
}
func firstOver(limit) {
  let i = 0;
  while (true) {
    i = i + 1;
    if (i * i > limit) { break; }
  }
  return i;
}
func sumOdd(n) {
  let total = 0;
  let i = 0;
  while (i < n) {
    i = i + 1;
    if (i % 2 == 0) { continue; }
    total = total + i;
  }
  return total;
}
`
	if got := run(t, src, "fib", int64(10)); got != int64(55) {
		t.Errorf("fib(10) = %v", got)
	}
	if got := run(t, src, "sumTo", int64(100)); got != int64(5050) {
		t.Errorf("sumTo(100) = %v", got)
	}
	if got := run(t, src, "firstOver", int64(100)); got != int64(11) {
		t.Errorf("firstOver(100) = %v", got)
	}
	if got := run(t, src, "sumOdd", int64(10)); got != int64(25) {
		t.Errorf("sumOdd(10) = %v", got)
	}
}

func TestForIn(t *testing.T) {
	src := `
func sumList(l) {
  let total = 0;
  for (x in l) { total = total + x; }
  return total;
}
func joinKeys(m) {
  let out = "";
  for (k in m) { out = out + k; }
  return out;
}
`
	got := run(t, src, "sumList", &lang.List{Items: []lang.Value{int64(1), int64(2), int64(3)}})
	if got != int64(6) {
		t.Errorf("sumList = %v", got)
	}
	m := lang.NewMap()
	m.Items["b"] = int64(1)
	m.Items["a"] = int64(2)
	m.Items["c"] = int64(3)
	if got := run(t, src, "joinKeys", m); got != "abc" {
		t.Errorf("joinKeys = %v (map iteration must be sorted)", got)
	}
}

func TestListsAndMaps(t *testing.T) {
	src := `
func f() {
  let l = [1, 2, 3];
  l[0] = 10;
  let m = {"x": 1, "y": {"z": 5}};
  m["x"] = l[0] + l[1];
  return m.x + m.y.z + l[-1];
}
`
	if got := run(t, src, "f"); got != int64(20) {
		t.Errorf("f() = %v, want 20", got)
	}
}

func TestFuncValues(t *testing.T) {
	src := `
func apply(f, x) { return f(x); }
func f() {
  let double = func(x) { return x * 2; };
  return apply(double, 21);
}
`
	if got := run(t, src, "f"); got != int64(42) {
		t.Errorf("f() = %v", got)
	}
}

func TestNativeFunctions(t *testing.T) {
	mod, err := vm.CompileSource(`func f(x) { return add1(x) * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(nil)
	v.Globals["add1"] = &lang.Native{
		Name:  "add1",
		Arity: 1,
		Fn: func(args []lang.Value) (lang.Value, error) {
			return args[0].(int64) + 1, nil
		},
	}
	if _, err := v.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	got, err := v.CallValue(v.Globals["f"], []lang.Value{int64(20)})
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(42) {
		t.Errorf("f(20) = %v", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"div0", `func f() { return 1 / 0; }`, "division by zero"},
		{"badIndex", `func f() { let l = [1]; return l[5]; }`, "out of range"},
		{"badType", `func f() { return [1] * 2; }`, "unsupported operand"},
		{"undefVar", `func f() { return nope; }`, "undefined variable"},
		{"notCallable", `func f() { let x = 3; return x(); }`, "not callable"},
		{"badIter", `func f() { for (x in 5) {} }`, "cannot iterate"},
		// Doubling by + outruns any step limit; it ends at the size cap
		// (27 doublings of one byte), not at the host's memory.
		{"hugeString", `func f() { let s = "x"; while (true) { s = s + s; } }`, "string too large"},
		{"hugeList", `func f() { let l = [0]; while (true) { l = l + l; } }`, "list too large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := tryRun(tc.src, "f")
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestArityMismatch(t *testing.T) {
	_, _, err := tryRun(`func f(a, b) { return a; } func g() { return f(1); }`, "g")
	if err == nil || !strings.Contains(err.Error(), "expects 2 args") {
		t.Fatalf("err = %v", err)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	_, _, err := tryRun(`func f(n) { return f(n + 1); }`, "f", int64(0))
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("err = %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	mod, err := vm.CompileSource(`func f() { while (true) {} }`)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(nil)
	v.MaxSteps = 10_000
	if _, err := v.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	if _, err := v.CallValue(v.Globals["f"], nil); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestProfileCollection(t *testing.T) {
	mod, err := vm.CompileSource(`
func hot(x) {
  let i = 0;
  while (i < 10) { i = i + 1; }
  return x;
}`)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(nil)
	if _, err := v.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	cl := v.Globals["hot"].(*vm.Closure)
	for i := 0; i < 5; i++ {
		if _, err := v.CallValue(cl, []lang.Value{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	prof := v.Profile(cl.Fn)
	if prof.Calls != 5 {
		t.Errorf("Calls = %d, want 5", prof.Calls)
	}
	if prof.LoopBackEdges != 50 {
		t.Errorf("LoopBackEdges = %d, want 50", prof.LoopBackEdges)
	}
	if !prof.Stable || len(prof.ArgTypes) != 1 || prof.ArgTypes[0] != lang.TInt {
		t.Errorf("profile signature = %+v, want stable [int]", prof)
	}
	// A string argument makes the profile polymorphic.
	if _, err := v.CallValue(cl, []lang.Value{"s"}); err != nil {
		t.Fatal(err)
	}
	if prof.Stable {
		t.Error("profile still stable after type change")
	}
}

func TestMeterCharges(t *testing.T) {
	mod, err := vm.CompileSource(`func f() { let t = 0; let i = 0; while (i < 100) { i = i + 1; t = t + i; } return t; }`)
	if err != nil {
		t.Fatal(err)
	}
	meter := &countMeter{}
	v := vm.New(meter)
	if _, err := v.RunModule(mod); err != nil {
		t.Fatal(err)
	}
	if _, err := v.CallValue(v.Globals["f"], nil); err != nil {
		t.Fatal(err)
	}
	if meter.counts[vm.CatArith] == 0 || meter.counts[vm.CatOther] == 0 {
		t.Fatalf("meter not charged: %+v", meter.counts)
	}
	if meter.tiers[vm.TierJIT] != 0 {
		t.Fatalf("JIT tier charged without a JIT backend")
	}
}

type countMeter struct {
	counts map[vm.Category]int
	tiers  map[vm.Tier]int
}

func (m *countMeter) Charge(counts *vm.OpCounts) {
	if m.counts == nil {
		m.counts = make(map[vm.Category]int)
		m.tiers = make(map[vm.Tier]int)
	}
	for tier, cats := range counts {
		for cat, n := range cats {
			m.counts[vm.Category(cat)] += n
			m.tiers[vm.Tier(tier)] += n
		}
	}
}

// TestBreakOutOfForIn covers the one compiler output the stack-depth
// check used to reject: a break leaving a for-in must pop the iterator,
// as the loop's exhausted NEXT does, so both paths reach the exit at one
// depth.
func TestBreakOutOfForIn(t *testing.T) {
	mod, err := vm.CompileSource(`func f(l) { for (x in l) { if (x > 2) { break } } return 1 }`)
	if err != nil {
		t.Fatalf("break out of for-in: %v", err)
	}
	if err := vm.Verify(mod); err != nil {
		t.Fatalf("verifier rejects break out of for-in: %v", err)
	}
	// The popped iterator is garbage at once: breaking out of a loop
	// 300k times allocates no more than running it to the end (the least
	// of three runs each, which leaves out the test runner's own).
	allocated := func(body string) (least uint64) {
		mod, err := vm.CompileSource(`func f() { let i = 0; while (i < 300000) { i = i + 1; for (x in [1, 2, 3]) {` + body + `} } return i }`)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			v := vm.New(nil)
			if _, err := v.RunModule(mod); err != nil {
				t.Fatal(err)
			}
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			if _, err := v.CallValue(v.Globals["f"], nil); err != nil {
				t.Fatal(err)
			}
			goruntime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < least {
				least = n
			}
		}
		return least
	}
	withBreak, without := allocated("break"), allocated("")
	if withBreak > without {
		t.Fatalf("the loop with break allocated %d bytes, without %d", withBreak, without)
	}
}

// TestTranslationAllocs pins the allocations of turning source into a
// loaded module (parse, compile to register code, a new VM, the top
// level run): every install does this on the request path, once per
// node. The ceilings are the parent engine's, which built a stack
// bytecode and then translated it.
func TestTranslationAllocs(t *testing.T) {
	churn := `
func main(params) {
  let k = 7;
  let x = params.x;
  if (x == null) { x = 1; }
  http_respond(200, "churn k=" + k);
  return x * 3 + k;
}
`
	for _, tc := range []struct {
		name, src string
		ceiling   float64
	}{
		{"churn", churn, 134},
		{"faas-fact", workloads.Fact(runtime.LangNode).Source, 356},
		{"faas-matrix-mult", workloads.MatrixMult(runtime.LangNode).Source, 524},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			mod, err := vm.CompileSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := vm.New(nil).RunModule(mod); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("%s: loading allocates %v times, ceiling %v", tc.name, allocs, tc.ceiling)
		}
	}
}
