package bytecode

import (
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
	// add body: LOADL 0, LOADL 1, ADD, RET + implicit null/RET.
	ops := opsOf(add)
	want := []Op{OpLoadLocal, OpLoadLocal, OpAdd, OpReturn, OpNull, OpReturn}
	if !equalOps(ops, want) {
		t.Fatalf("add code = %v, want %v", ops, want)
	}
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

func opsOf(f *Function) []Op {
	out := make([]Op, len(f.Code))
	for i, ins := range f.Code {
		out[i] = ins.Op
	}
	return out
}

func equalOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
	for _, ins := range f.Code {
		if ins.Op == OpLoop {
			hasLoop = true
			if ins.A < 0 || ins.A >= len(f.Code) {
				t.Fatalf("loop target %d out of range", ins.A)
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
	f := function(mod, "f")
	for pc, ins := range f.Code {
		switch ins.Op {
		case OpJump, OpJumpIfFalse, OpJumpIfTrue, OpLoop, OpIterNext:
			if ins.A < 0 || ins.A > len(f.Code) {
				t.Fatalf("pc %d: %s target %d out of [0,%d]", pc, ins.Op, ins.A, len(f.Code))
			}
		}
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

func TestTotalInstructions(t *testing.T) {
	mod := compileOne(t, `func f() { return 1; } let x = f();`)
	if mod.TotalInstructions() <= 0 {
		t.Fatal("no instructions counted")
	}
	sum := len(mod.TopLevel.Code)
	for _, f := range mod.Functions {
		sum += len(f.Code)
	}
	if mod.TotalInstructions() != sum {
		t.Fatalf("TotalInstructions = %d, want %d", mod.TotalInstructions(), sum)
	}
}

func TestCategoryOf(t *testing.T) {
	cases := map[Op]Category{
		OpAdd: CatArith, OpLt: CatArith, OpNeg: CatArith,
		OpIndex: CatIndex, OpMakeMap: CatIndex,
		OpCall:      CatCall,
		OpLoadLocal: CatOther, OpJump: CatOther, OpReturn: CatOther,
	}
	for op, want := range cases {
		if got := CategoryOf(op); got != want {
			t.Errorf("CategoryOf(%s) = %v, want %v", op, got, want)
		}
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
