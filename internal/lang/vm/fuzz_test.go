package vm_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/annotate"
	"repro/internal/couchdb"
	"repro/internal/fs"
	"repro/internal/lang"
	"repro/internal/lang/bytecode"
	"repro/internal/lang/jit"
	"repro/internal/lang/vm"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/sandbox"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// fuzzSeeds is the shared seed corpus: every workload source with light
// parameters, the snippets the unit tests run, and a few outputs of the
// random program generator. params is JSON: a list spreads into the
// entry's arguments, anything else is its single argument.
func fuzzSeeds() [][2]string {
	light := map[string]string{
		workloads.NameFact:       `{"n": 5040, "rounds": 3}`,
		workloads.NameMatrixMult: `{"n": 6}`,
		workloads.NameDiskIO:     `{"iterations": 3}`,
	}
	var seeds [][2]string
	all := append(workloads.All(), workloads.WorkflowFunctions()...)
	for _, w := range all {
		params, err := json.Marshal(w.DefaultParams)
		if err != nil {
			panic(err)
		}
		for name, p := range light {
			if w.Name == name+"-"+string(w.Lang) {
				params = []byte(p)
			}
		}
		seeds = append(seeds, [2]string{w.Source, string(params)})
	}
	for _, s := range [][2]string{
		{`func hot(n) { let total = 0; let i = 0; while (i < n) { i = i + 1; total = total + i * i; } return total; }`, `[50]`},
		{`func fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }`, `[12]`},
		{`func f(n) { return f(n + 1); }`, `[0]`},
		{`func poly(x) { return x + x; }`, `["s"]`},
		{`func f(a, b) { return [a / b, a % b, -a, !b, a == b, a <= 2.5]; }`, `[7, 0]`},
		{`func f(l) { let s = ""; for (x in l) { s = s + x; } for (k in {"b": 1, "a": 2}) { s = s + k; } for (c in "hé") { s = s + c; } return s; }`, `[[1, 2.5, null, true]]`},
		{`func f(n) { let m = {"k": [1, 2, 3]}; m.k[-1] = n; m["j"] = m.k[0] + m.k[2]; return m; }`, `[4]`},
		{`func f() { while (true) {} }`, `[]`},
		{`let g = 3; func f(n) { g = g * n; print("g", g); return g > 10 && n != null || false; }`, `[5]`},
	} {
		seeds = append(seeds, s)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		seeds = append(seeds, [2]string{randomProgram(seed), `[3, -4, 1.5]`})
	}
	return seeds
}

// tierMode selects which tier a fuzzed program's functions run in.
type tierMode int

const (
	modeInterp  tierMode = iota // no JIT backend at all
	modeJIT                     // every function compiled unguarded before the call
	modeDeopted                 // every function compiled with guards no argument satisfies
)

// opCounts are the op counts the VM handed to the meter, per (tier,
// category).
type opCounts [2][bytecode.NumCategories]int

func (c *opCounts) Charge(tier vm.Tier, cat bytecode.Category, n int) { c[tier][cat] += n }

// perCategory sums the tiers away: what executed, wherever it executed.
func (c *opCounts) perCategory() (sum [bytecode.NumCategories]int) {
	for _, tier := range c {
		for cat, n := range tier {
			sum[cat] += n
		}
	}
	return sum
}

type outcome struct {
	result lang.Value
	err    error
	stdout string
	counts opCounts
}

// fuzzMaxSteps keeps one execution to a few milliseconds; running into
// it is an error like any other, at the same op in every mode.
const fuzzMaxSteps = 200_000

// runTiered loads src into a fresh runtime with the platform natives
// bound to throw-away substrates and calls its entry in the given mode.
// ok is false when src does not compile or declares no function.
func runTiered(src string, params lang.Value, mode tierMode) (out outcome, ok bool) {
	rt := runtime.New(runtime.LangNode, vclock.New())
	rt.Boot()
	binding := &platform.NativeBinding{
		Profile: sandbox.Profiles(sandbox.ClassFirecracker),
		FS:      fs.NewMemFS(),
		Couch:   couchdb.NewServer(),
		Inv:     platform.NewInvocation("fuzz"),
	}
	binding.Install(rt)
	// range(n) is the one builtin whose allocation the step limit does
	// not bound.
	realRange := rt.VM.Globals["range"].(*lang.Native)
	rt.InstallNatives(map[string]*lang.Native{"range": {Name: "range", Arity: 1, Fn: func(args []lang.Value) (lang.Value, error) {
		if n, isInt := args[0].(int64); isInt && n > 10_000 {
			return nil, fmt.Errorf("range: %d too large for the fuzz harness", n)
		}
		return realRange.Fn(args)
	}}})
	rt.VM.Meter = &out.counts
	rt.VM.MaxSteps = fuzzMaxSteps
	engine := jit.NewEngine(jit.Config{}) // no thresholds: only explicit compiles
	rt.VM.JIT = engine
	if mode == modeInterp {
		rt.VM.JIT = nil
	}
	if err := rt.LoadModule(src); err != nil {
		return out, false
	}
	fns := rt.Module().Functions
	if len(fns) == 0 {
		return out, false
	}
	entry := fns[len(fns)-1].Name
	if rt.Module().Function("main") != nil {
		entry = "main"
	}
	for _, fn := range fns {
		switch mode {
		case modeJIT:
			engine.Compile(fn, nil)
		case modeDeopted:
			guards := make([]lang.Type, len(fn.Params))
			for i := range guards {
				guards[i] = lang.TOther
			}
			engine.Compile(fn, &vm.Profile{ArgTypes: guards, Stable: true})
		}
	}
	args := []lang.Value{params}
	if l, isList := params.(*lang.List); isList {
		args = l.Items
	}
	out.result, out.err = rt.Call(entry, args...)
	out.stdout = rt.Stdout.String()
	return out, true
}

// FuzzTiers asserts the property the post-JIT snapshot rests on: which
// tier runs a program never changes what it computes — the result, the
// output, whether it fails and with which error, and the ops it executes (so the virtual
// time it is charged differs only by the per-tier rates).
func FuzzTiers(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, src, paramsJSON string) {
		if len(src) > 4096 || len(paramsJSON) > 1024 {
			t.Skip("oversized input")
		}
		decode := func() lang.Value { // each mode gets its own copy to mutate
			v, err := runtime.DecodeJSON([]byte(paramsJSON))
			if err != nil {
				t.Skip("params are not JSON")
			}
			return v
		}
		want, ok := runTiered(src, decode(), modeInterp)
		if !ok {
			t.Skip("source does not load")
		}
		if want.counts[vm.TierJIT] != [bytecode.NumCategories]int{} {
			t.Fatalf("JIT-tier ops charged without a JIT: %v", want.counts)
		}
		for _, mode := range []tierMode{modeJIT, modeDeopted} {
			got, _ := runTiered(src, decode(), mode)
			if (got.err == nil) != (want.err == nil) {
				t.Fatalf("mode %d: err = %v, interpreter: %v\n%s", mode, got.err, want.err, src)
			}
			// One engine runs every mode, so an error reads the same in all.
			if got.err != nil && got.err.Error() != want.err.Error() {
				t.Fatalf("mode %d: err %q, interpreter: %q\n%s", mode, got.err, want.err, src)
			}
			if lang.Format(got.result) != lang.Format(want.result) || lang.TypeOf(got.result) != lang.TypeOf(want.result) {
				t.Fatalf("mode %d: result %s, interpreter: %s\n%s", mode, lang.Format(got.result), lang.Format(want.result), src)
			}
			// Functions compare by identity (each mode has its own
			// runtime) and NaN not at all: Equal is checked on results
			// free of both.
			if text := lang.Format(want.result); !strings.Contains(text, "<func ") && !strings.Contains(text, "<native ") &&
				!strings.Contains(text, "NaN") && !lang.Equal(got.result, want.result) {
				t.Fatalf("mode %d: result %s not Equal to the interpreter's\n%s", mode, lang.Format(got.result), src)
			}
			if got.stdout != want.stdout {
				t.Fatalf("mode %d: stdout %q, interpreter: %q\n%s", mode, got.stdout, want.stdout, src)
			}
			if got.counts.perCategory() != want.counts.perCategory() {
				t.Fatalf("mode %d: ops per category %v, interpreter: %v\n%s", mode, got.counts, want.counts, src)
			}
		}
	})
}

// FuzzCompileSource asserts the front end is total: lexing, parsing,
// annotating and compiling arbitrary text return (a module or an
// error) without panicking or hanging.
func FuzzCompileSource(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s[0])
	}
	for _, s := range []string{"", "func", "func f(", "@jit(cache=", `"unterminated`, "let x = 1 +;", "func f() { return 1 }}", "/* open", "1e999", "a.b.c[d](e)(f)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		if _, err := lang.Tokenize(src); err != nil {
			return
		}
		mod, compileErr := bytecode.CompileSource(src)
		if compileErr == nil {
			for _, fn := range append(mod.Functions, mod.TopLevel) {
				_ = bytecode.Disassemble(fn)
			}
		}
		// The annotator only parses; what it adds to a source that
		// compiles must compile too.
		if ann, err := annotate.Annotate(src, annotate.Options{}); err == nil && compileErr == nil {
			if _, err := bytecode.CompileSource(ann.Source); err != nil {
				t.Fatalf("annotated source does not compile: %v\n%s", err, ann.Source)
			}
		}
	})
}
