package vm

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/lang"
)

func compileOne(t *testing.T, src string) *Module {
	t.Helper()
	mod, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// function returns mod's function named name, or nil.
func function(mod *Module, name string) *Function {
	for _, f := range mod.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}

func categories(f *Function) []Category {
	out := make([]Category, len(f.ops))
	for i, o := range f.ops {
		out[i] = o.cat
	}
	return out
}

func rops(f *Function) []rop {
	out := make([]rop, len(f.instrs))
	for i, in := range f.instrs {
		out[i] = in.op
	}
	return out
}

func TestCompileFunctionShape(t *testing.T) {
	mod := compileOne(t, `
func add(a, b) { return a + b; }
func main(params) { return add(1, 2); }
`)
	if len(mod.Functions) != 2 {
		t.Fatalf("functions = %d", len(mod.Functions))
	}
	add := function(mod, "add")
	if add == nil {
		t.Fatal("add missing")
	}
	if len(add.Params) != 2 || add.NumLocals < 2 {
		t.Fatalf("add shape: params=%v locals=%d", add.Params, add.NumLocals)
	}
	// add's ops: LOADL 0, LOADL 1, ADD, RET, then the implicit null and
	// RET, which nothing reaches. Its code: one block, the add straight
	// from the two locals, the return of its result.
	if got, want := categories(add), []Category{CatOther, CatOther, CatArith, CatOther, CatOther, CatOther}; !slices.Equal(got, want) {
		t.Fatalf("add ops = %v, want %v", got, want)
	}
	if got, want := rops(add), []rop{opBlock, opBin, opRet}; !slices.Equal(got, want) {
		t.Fatalf("add code = %v, want %v", got, want)
	}
	if in := add.instrs[1]; in.sub != OpAdd || in.b != 0 || in.c != 1 || add.instrs[2].b != in.a {
		t.Fatalf("add code = %+v", add.instrs)
	}
	if b := add.blocks; len(b) != 1 || b[0].start != 0 || b[0].end != 4 {
		t.Fatalf("add blocks = %+v, want ops 0 to 4", b)
	}
}

func TestConstantDeduplication(t *testing.T) {
	mod := compileOne(t, `func f() { return 7 + 7 + 7; }`)
	f := function(mod, "f")
	count := 0
	for _, c := range f.Consts {
		if c == int64(7) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("constant 7 appears %d times", count)
	}
}

func TestLoopCompilesBackEdge(t *testing.T) {
	mod := compileOne(t, `func f() { let i = 0; while (i < 3) { i = i + 1; } }`)
	f := function(mod, "f")
	hasLoop := false
	for _, in := range f.instrs {
		if in.op == opLoop {
			hasLoop = true
			if in.a < 0 || int(in.a) >= len(f.instrs) || f.instrs[in.a].op != opBlock {
				t.Fatalf("loop target %d is not a block start", in.a)
			}
		}
	}
	if !hasLoop {
		t.Fatal("no back edge emitted")
	}
}

func TestJumpTargetsInRange(t *testing.T) {
	mod := compileOne(t, `
func f(n) {
  let acc = 0;
  for (x in [1, 2, 3]) {
    if (x == 2 && n > 0) { continue; }
    if (x == 3 || n < 0) { break; }
    acc = acc + x;
  }
  while (acc > 100) { acc = acc - 1; }
  return acc;
}
`)
	if err := verify(function(mod, "f")); err != nil {
		t.Fatal(err)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, sub string
	}{
		{`return 3;`, "return outside function"},
		{`break;`, "break outside loop"},
		{`continue;`, "continue outside loop"},
	}
	for _, tc := range cases {
		if _, err := CompileSource(tc.src); err == nil || !strings.Contains(err.Error(), tc.sub) {
			t.Errorf("CompileSource(%q) err = %v, want %q", tc.src, err, tc.sub)
		}
	}
}

func TestAnnotationsPreserved(t *testing.T) {
	mod := compileOne(t, `
@jit(cache=true)
func hot() { return 1; }
func cold() { return 2; }
`)
	if !function(mod, "hot").HasAnnotation("jit") {
		t.Fatal("hot lost annotation")
	}
	if function(mod, "cold").HasAnnotation("jit") {
		t.Fatal("cold gained annotation")
	}
}

// TestTotalInstructions: a module's op count, which module-load time
// and the module's memory are charged by, is its functions' summed.
func TestTotalInstructions(t *testing.T) {
	mod := compileOne(t, `func f() { return 1; } let x = f();`)
	sum := mod.TopLevel.Ops()
	for _, f := range mod.Functions {
		sum += f.Ops()
	}
	if sum <= 0 || mod.Ops() != sum {
		t.Fatalf("Ops = %d, want %d", mod.Ops(), sum)
	}
}

// TestCategoryOf pins the cost category each kind of op is booked at.
func TestCategoryOf(t *testing.T) {
	f := function(compileOne(t, `func f(a, m) { return g(-a < 1, !a, m["k"], [a], {}); }`), "f")
	const (
		o = CatOther
		a = CatArith
		x = CatIndex
		c = CatCall
	)
	// LOADG g; LOADL a, NEG, CONST, LT; LOADL a, NOT; LOADL m, CONST,
	// INDEX; LOADL a, MKLIST; MKMAP; CALL; RET; NULL, RET.
	want := []Category{o, o, a, o, a, o, o, o, o, x, o, x, x, c, o, o, o}
	if got := categories(f); !slices.Equal(got, want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
}

func TestClosureValue(t *testing.T) {
	mod := compileOne(t, `func f() { return 0; }`)
	cl := &Closure{Fn: function(mod, "f")}
	if lang.TypeOf(cl) != lang.TFunc {
		t.Fatalf("TypeOf(closure) = %v", lang.TypeOf(cl))
	}
	if cl.String() != "<func f>" {
		t.Fatalf("String = %q", cl.String())
	}
}

func TestNestedFunctionDecl(t *testing.T) {
	mod := compileOne(t, `
func outer() {
  func inner(x) { return x * 2; }
  return inner(21);
}
`)
	// inner is not a top-level module function...
	if function(mod, "inner") != nil {
		t.Fatal("nested function leaked to module level")
	}
	// ...but outer carries it as a closure constant.
	found := false
	for _, c := range function(mod, "outer").Consts {
		if fn, ok := c.(*Function); ok && fn.Name == "inner" {
			found = true
		}
	}
	if !found {
		t.Fatal("inner not compiled into outer's constants")
	}
}
