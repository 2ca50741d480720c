package runtime

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/lang/vm"
	"repro/internal/vclock"
)

const testModule = `
func square(x) { return x * x; }
func main(params) {
  let total = 0;
  let i = 0;
  while (i < 100) {
    total = total + square(i);
    i = i + 1;
  }
  print("total", total);
  return total;
}
`

func bootAndLoad(t *testing.T, l Lang, src string) (*Runtime, *vclock.Clock) {
	t.Helper()
	clock := vclock.New()
	rt := New(l, clock)
	rt.Boot()
	if err := rt.LoadModule(src); err != nil {
		t.Fatal(err)
	}
	return rt, clock
}

func TestBootChargesOnce(t *testing.T) {
	clock := vclock.New()
	rt := New(LangNode, clock)
	rt.Boot()
	boot := clock.Now()
	if boot != rt.Model.RuntimeBoot {
		t.Fatalf("boot cost = %v", boot)
	}
	rt.Boot() // idempotent
	if clock.Now() != boot {
		t.Fatal("double boot charged twice")
	}
}

func TestLoadBeforeBootFails(t *testing.T) {
	rt := New(LangNode, vclock.New())
	if err := rt.LoadModule("func main(p) { return 0; }"); err == nil {
		t.Fatal("load before boot succeeded")
	}
}

func TestCallAndStdout(t *testing.T) {
	rt, _ := bootAndLoad(t, LangNode, testModule)
	got, err := rt.Call("main", lang.NewMap())
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(328350) {
		t.Fatalf("main = %v", got)
	}
	if !strings.Contains(rt.Stdout.String(), "total 328350") {
		t.Fatalf("stdout = %q", rt.Stdout.String())
	}
	if _, err := rt.Call("missing"); err == nil {
		t.Fatal("call of missing global succeeded")
	}
	if _, ok := rt.VM.Globals["square"]; !ok {
		t.Fatal("global square not defined")
	}
}

func TestExecutionChargesClock(t *testing.T) {
	rt, clock := bootAndLoad(t, LangPython, testModule)
	before := clock.Now()
	rt.Call("main", lang.NewMap())
	if clock.Now() == before {
		t.Fatal("execution free of charge")
	}
}

func TestPythonInterpSlowerThanNode(t *testing.T) {
	nodeRT, nodeClock := bootAndLoad(t, LangNode, testModule)
	pyRT, pyClock := bootAndLoad(t, LangPython, testModule)
	nm := nodeClock.Now()
	nodeRT.Call("main", lang.NewMap())
	nodeCost := nodeClock.Now() - nm
	pm := pyClock.Now()
	pyRT.Call("main", lang.NewMap())
	pyCost := pyClock.Now() - pm
	if pyCost <= nodeCost {
		t.Fatalf("python %v not slower than node %v", pyCost, nodeCost)
	}
}

func TestNodeTiersUpNaturally(t *testing.T) {
	rt, _ := bootAndLoad(t, LangNode, testModule)
	for i := 0; i < 10; i++ {
		rt.Call("main", lang.NewMap())
	}
	if rt.Engine.Compiles() == 0 {
		t.Fatal("hot node code never tiered up")
	}
}

func TestPythonNeverTiersWithoutAnnotation(t *testing.T) {
	rt, _ := bootAndLoad(t, LangPython, testModule)
	for i := 0; i < 20; i++ {
		rt.Call("main", lang.NewMap())
	}
	if rt.Engine.Compiles() != 0 {
		t.Fatal("un-annotated python compiled")
	}
}

func TestPythonNumbaCompilesAnnotated(t *testing.T) {
	src := `
@jit(cache=true)
func kernel(x) { return x * 3; }
func main(params) { return kernel(14); }
`
	rt, _ := bootAndLoad(t, LangPython, src)
	got, err := rt.Call("main", lang.NewMap())
	if err != nil || got != int64(42) {
		t.Fatalf("main = %v, %v", got, err)
	}
	names := rt.Engine.CompiledFunctions()
	if len(names) != 1 || names[0] != "kernel" {
		t.Fatalf("compiled = %v", names)
	}
}

func TestForceJITAll(t *testing.T) {
	rt, clock := bootAndLoad(t, LangNode, testModule)
	before := clock.Now()
	n := rt.ForceJITAll()
	if n != 2 {
		t.Fatalf("compiled %d functions, want 2", n)
	}
	if clock.Now() == before {
		t.Fatal("compilation free of charge")
	}
	if rt.ForceJITAll() != 0 {
		t.Fatal("recompiled already-compiled functions")
	}
	// Python + annotations: only annotated functions compile.
	pySrc := "@jit(cache=true)\nfunc a() { return 1; }\nfunc b() { return 2; }\nfunc main(p) { return a() + b(); }"
	py, _ := bootAndLoad(t, LangPython, pySrc)
	if n := py.ForceJITAll(); n != 1 {
		t.Fatalf("python compiled %d, want 1 (annotated only)", n)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rt, _ := bootAndLoad(t, LangNode, testModule+"\nlet counter = 10;\n")
	rt.ForceJITAll()
	tmpl, err := rt.SnapshotTemplate()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the source runtime after the snapshot must not affect
	// the template.
	rt.VM.Globals["counter"] = int64(999)

	clock := vclock.New()
	restored, err := NewFromSnapshot(tmpl, clock)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() != 0 {
		t.Fatalf("restore charged %v; boot/load/JIT must be free", clock.Now())
	}
	if restored.VM.Globals["counter"] != int64(10) {
		t.Fatalf("counter = %v, want snapshot-time 10", restored.VM.Globals["counter"])
	}
	// The restored runtime reuses the JITted code: calling main charges
	// at JIT-tier cost and produces the right result.
	got, err := restored.Call("main", lang.NewMap())
	if err != nil || got != int64(328350) {
		t.Fatalf("restored main = %v, %v", got, err)
	}
	if restored.Engine.Compiles() != rt.Engine.Compiles() {
		t.Fatal("code cache not carried over")
	}
	// Independent globals: mutation in the restored guest stays there.
	restored.VM.Globals["counter"] = int64(1)
	tmpl2, _ := rt.SnapshotTemplate()
	if tmpl2.Globals["counter"] != int64(999) {
		t.Fatal("template depends on restored guest state")
	}
}

func TestRestoredExecutionIsFast(t *testing.T) {
	// The post-JIT property: a restored python runtime executes at
	// Numba speed with zero compile charge at invoke time.
	src := `
func work(n) {
  let total = 0;
  let i = 0;
  while (i < n) { total = total + i * i; i = i + 1; }
  return total;
}
func main(params) { return work(5000); }
`
	// The annotated variant is what the Fireworks code annotator ships.
	annotated := "@jit(cache=true)\n" + strings.Replace(src, "func main", "@jit(cache=true)\nfunc main", 1)

	interp, interpClock := bootAndLoad(t, LangPython, src)
	m1 := interpClock.Now()
	interp.Call("main", lang.NewMap())
	interpCost := interpClock.Now() - m1

	jitted, _ := bootAndLoad(t, LangPython, annotated)
	jitted.ForceJITAll()
	tmpl, _ := jitted.SnapshotTemplate()
	clock := vclock.New()
	restored, _ := NewFromSnapshot(tmpl, clock)
	m2 := clock.Now()
	restored.Call("main", lang.NewMap())
	jitCost := clock.Now() - m2

	ratio := float64(interpCost) / float64(jitCost)
	if ratio < 10 {
		t.Fatalf("restored exec speedup = %.1fx, want >10x", ratio)
	}
}

func TestFootprintAndJITCodeBytes(t *testing.T) {
	rt, _ := bootAndLoad(t, LangPython, "@jit(cache=true)\nfunc k(x) { return x; }\nfunc main(p) { return k(1); }")
	before := rt.Footprint()
	if before.JITCode != 0 {
		t.Fatalf("JIT code before compile = %d", before.JITCode)
	}
	if before.Libraries != rt.Model.LibraryBytes {
		t.Fatal("JIT library extra charged before compile")
	}
	rt.Call("main", lang.NewMap()) // numba compiles k on first call
	after := rt.Footprint()
	if after.JITCode < rt.Model.JITModuleOverheadBytes {
		t.Fatalf("JIT code = %d, want >= module overhead", after.JITCode)
	}
	if after.Libraries != rt.Model.LibraryBytes+rt.Model.JITLibraryExtraBytes {
		t.Fatal("numba libraries not added after compile")
	}
}

func TestSetClockRedirectsCharges(t *testing.T) {
	rt, installClock := bootAndLoad(t, LangNode, testModule)
	invokeClock := vclock.New()
	rt.SetClock(invokeClock)
	before := installClock.Now()
	rt.Call("main", lang.NewMap())
	if installClock.Now() != before {
		t.Fatal("execution charged the old clock")
	}
	if invokeClock.Now() == 0 {
		t.Fatal("execution charged nothing to the new clock")
	}
}

func TestDeoptChargesPenalty(t *testing.T) {
	src := `func poly(x) { return x + x; } func main(p) { return poly(2); }`
	rt, clock := bootAndLoad(t, LangNode, src)
	for i := 0; i < 6; i++ {
		rt.Call("main", lang.NewMap()) // monomorphic int profile; tiers up
	}
	if rt.Engine.Compiles() == 0 {
		t.Fatal("never compiled")
	}
	before := clock.Now()
	if _, err := rt.Call("poly", "s"); err != nil {
		t.Fatal(err)
	}
	cost := clock.Now() - before
	if cost < rt.Model.DeoptPenalty {
		t.Fatalf("deopt call cost %v < penalty %v", cost, rt.Model.DeoptPenalty)
	}
	poly := rt.VM.Globals["poly"].(*vm.Closure).Fn
	if got := rt.VM.Profile(poly).Deopts; got != 1 {
		t.Fatalf("deopts = %d", got)
	}
}

func TestModuleLoadCostScalesWithSize(t *testing.T) {
	small := vclock.New()
	rtS := New(LangNode, small)
	rtS.Boot()
	base := small.Now()
	rtS.LoadModule("func main(p) { return 1; }")
	smallLoad := small.Now() - base

	big := vclock.New()
	rtB := New(LangNode, big)
	rtB.Boot()
	base = big.Now()
	var sb strings.Builder
	sb.WriteString("func main(p) { let x = 0;")
	for i := 0; i < 200; i++ {
		sb.WriteString(" x = x + 1;")
	}
	sb.WriteString(" return x; }")
	rtB.LoadModule(sb.String())
	bigLoad := big.Now() - base
	if bigLoad <= smallLoad {
		t.Fatalf("load cost not size-dependent: %v vs %v", smallLoad, bigLoad)
	}
}

func TestJSONHelpers(t *testing.T) {
	m := lang.NewMap()
	m.Items["n"] = int64(3)
	m.Items["f"] = 1.5
	m.Items["l"] = &lang.List{Items: []lang.Value{"a", int64(2)}}
	data, err := EncodeJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !lang.Equal(m, back) {
		t.Fatalf("round trip: %s -> %s", lang.Format(m), lang.Format(back))
	}
	// Integers survive as int64, not float64.
	if lang.TypeOf(back.(*lang.Map).Items["n"]) != lang.TInt {
		t.Fatal("int decoded as float")
	}
	if _, err := DecodeJSON([]byte("{broken")); err == nil {
		t.Fatal("bad JSON decoded")
	}
	// A guest can make a value contain itself; encoding it is an error,
	// not unbounded recursion.
	m.Items["l"] = &lang.List{Items: []lang.Value{m}}
	if _, err := EncodeJSON(m); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("cyclic value: err = %v", err)
	}
}

func TestModelForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ModelFor(Lang("cobol"))
}

func TestCostModelShapes(t *testing.T) {
	node, py := ModelFor(LangNode), ModelFor(LangPython)
	// Python's interpreter is slower than Node's in every category.
	for cat, nodeCost := range node.InterpCost {
		if py.InterpCost[cat] <= nodeCost {
			t.Errorf("python interp %v not slower than node for cat %d", py.InterpCost[cat], cat)
		}
	}
	// Numba compiles much slower than V8.
	if py.CompilePerInstr <= node.CompilePerInstr {
		t.Error("numba compile not slower than V8")
	}
	if !py.AnnotatedOnly || node.AnnotatedOnly {
		t.Error("annotation policies swapped")
	}
	if py.JITCodeDuplication <= 1 || node.JITCodeDuplication != 1 {
		t.Error("duplication factors wrong")
	}
	_ = time.Nanosecond
}

// TestRecursionDepthLimitEveryTier: unbounded guest recursion must come
// back as an error whichever tier runs it. Compiled code used to skip
// the check and recurse until the Go stack limit killed the process.
func TestRecursionDepthLimitEveryTier(t *testing.T) {
	const src = `func f(n) { return f(n + 1); }`
	cases := []struct {
		name string
		lang Lang
		arg  lang.Value
	}{
		// Unannotated Python never compiles.
		{"interpreter", LangPython, int64(0)},
		// Forced compile, no profile yet: unguarded code, every level JITted.
		{"jit", LangNode, int64(0)},
		// Node tiers f up on its 4th call with an int guard; the string
		// argument ("s" + 1 = "s1", ...) fails it at every level.
		{"jit-after-deopt", LangNode, "s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, _ := bootAndLoad(t, tc.lang, src)
			switch tc.name {
			case "jit":
				rt.ForceJITAll()
			case "jit-after-deopt":
				// An int-typed priming run compiles f with an int guard
				// (and itself ends at the depth limit).
				if _, err := rt.Call("f", int64(0)); err == nil {
					t.Fatal("priming recursion returned no error")
				}
			}
			_, err := rt.Call("f", tc.arg)
			if err == nil || !strings.Contains(err.Error(), "vm: call depth limit (512) exceeded in f") {
				t.Fatalf("err = %v, want the call depth limit", err)
			}
			// The recursion ran in the tier the case is named for.
			deopts := rt.VM.Profile(rt.VM.Globals["f"].(*vm.Closure).Fn).Deopts
			switch tc.name {
			case "interpreter":
				if rt.Engine.Compiles() != 0 {
					t.Fatal("interpreter case compiled f")
				}
			case "jit":
				if rt.Engine.Compiles() != 1 || deopts != 0 {
					t.Fatalf("compiles = %d, deopts = %d; want f JITted throughout", rt.Engine.Compiles(), deopts)
				}
			case "jit-after-deopt":
				if deopts < 512 {
					t.Fatalf("deopts = %d, want one per level", deopts)
				}
			}
			// The runtime is still usable afterwards.
			if _, err := rt.Call("len", "abc"); err != nil {
				t.Fatalf("runtime unusable after the depth error: %v", err)
			}
		})
	}
}

// TestClockReadingsMatchPerInstructionMeter: ops are counted and charged
// in batches, but a guest that reads the clock on every loop iteration
// must see exactly what a meter charging each op as it executes would
// show. The expected readings are computed from probe's ops, written out
// below in evaluation order, and the cost arrays.
func TestClockReadingsMatchPerInstructionMeter(t *testing.T) {
	const src = `
func probe(n) {
  let out = [];
  let i = 0;
  while (i < n) {
    push(out, now_ns());
    i = i + 1;
  }
  return out;
}`
	const (
		o = vm.CatOther
		a = vm.CatArith
		x = vm.CatIndex
		c = vm.CatCall
	)
	var (
		head  = []vm.Category{x, o, o, o}       // let out = []; let i = 0;
		test  = []vm.Category{o, o, a, o}       // i < n, the exit branch
		call  = []vm.Category{o, o, o, c}       // push, out, now_ns, its call
		body  = []vm.Category{c, o, o, o, a, o} // push's call, pop; i = i + 1;
		exit  = []vm.Category{o, o}             // return out;
		trail = 3                               // LOOP, then the implicit null and return
	)
	const n = 50
	for _, tc := range []struct {
		name  string
		lang  Lang
		force bool
	}{
		{"interp", LangPython, false},
		{"jit", LangNode, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.New()
			rt := New(tc.lang, clock)
			rt.Boot()
			rt.InstallNatives(map[string]*lang.Native{
				"now_ns": {Name: "now_ns", Arity: 0, Fn: func([]lang.Value) (lang.Value, error) {
					return int64(rt.Clock.Now()), nil
				}},
			})
			if err := rt.LoadModule(src); err != nil {
				t.Fatal(err)
			}
			costs := rt.Model.InterpCost
			if tc.force {
				rt.ForceJITAll()
				costs = rt.Model.JITCost
			}
			probe := rt.VM.Globals["probe"].(*vm.Closure).Fn
			if ops := len(head) + len(test) + len(call) + len(body) + len(exit) + trail; probe.Ops() != ops {
				t.Fatalf("probe compiles to %d ops, the list here has %d", probe.Ops(), ops)
			}
			span := func(parts ...[]vm.Category) (d time.Duration) {
				for _, part := range parts {
					for _, cat := range part {
						d += costs[cat]
					}
				}
				return d
			}
			loop := []vm.Category{o} // the back-edge
			start := clock.Now()
			got, err := rt.Call("probe", int64(n))
			if err != nil {
				t.Fatal(err)
			}
			readings := got.(*lang.List).Items
			if len(readings) != n {
				t.Fatalf("%d readings, want %d", len(readings), n)
			}
			want := start + span(head, test, call)
			for i, r := range readings {
				if r != int64(want) {
					t.Fatalf("reading %d = %v, want %d", i, r, int64(want))
				}
				want += span(body, loop, test, call)
			}
			// When the call returns, the rest of the run is on the clock
			// too: the tail of the last iteration, the loop test that
			// fails, and the exit path up to the return.
			want += span(body, loop, test, exit) - span(body, loop, test, call)
			if clock.Now() != want {
				t.Fatalf("clock after return = %v, want %v", clock.Now(), want)
			}
		})
	}
}
