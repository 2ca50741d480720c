package vm_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lang"
	"repro/internal/lang/jit"
	"repro/internal/lang/vm"
)

func TestBinaryOpSemantics(t *testing.T) {
	l := &lang.List{Items: []lang.Value{int64(1)}}
	cases := []struct {
		op    vm.Op
		a, b  lang.Value
		want  lang.Value
		isErr bool
	}{
		// Addition across types.
		{vm.OpAdd, int64(2), int64(3), int64(5), false},
		{vm.OpAdd, int64(2), 0.5, 2.5, false},
		{vm.OpAdd, 0.5, int64(2), 2.5, false},
		{vm.OpAdd, 1.5, 2.5, 4.0, false},
		{vm.OpAdd, "a", "b", "ab", false},
		{vm.OpAdd, "n=", int64(7), "n=7", false},
		{vm.OpAdd, "v=", true, "v=true", false},
		{vm.OpAdd, &lang.List{Items: []lang.Value{int64(1)}}, &lang.List{Items: []lang.Value{int64(2)}}, nil, false}, // checked below
		{vm.OpAdd, int64(1), "s", nil, true},
		{vm.OpAdd, nil, int64(1), nil, true},
		// Subtraction/multiplication/division.
		{vm.OpSub, int64(7), 0.5, 6.5, false},
		{vm.OpSub, "a", "b", nil, true},
		{vm.OpMul, 1.5, int64(4), 6.0, false},
		{vm.OpMul, l, int64(2), nil, true},
		{vm.OpDiv, int64(7), int64(2), int64(3), false},
		{vm.OpDiv, 7.0, 2.0, 3.5, false},
		{vm.OpDiv, int64(7), 2.0, 3.5, false},
		{vm.OpDiv, int64(1), int64(0), nil, true},
		{vm.OpDiv, 1.0, 0.0, positiveInf(), false}, // IEEE semantics for floats
		{vm.OpMod, int64(7), int64(3), int64(1), false},
		{vm.OpMod, int64(7), int64(0), nil, true},
		{vm.OpMod, 7.5, 2.0, nil, true},
		// Comparisons.
		{vm.OpLt, int64(1), 1.5, true, false},
		{vm.OpLt, 1.5, int64(1), false, false},
		{vm.OpGte, 2.0, 2.0, true, false},
		{vm.OpLte, "abc", "abd", true, false},
		{vm.OpGt, "b", "a", true, false},
		{vm.OpLt, "a", int64(1), nil, true},
		{vm.OpLt, true, false, nil, true},
		// Equality never errors.
		{vm.OpEq, int64(1), "1", false, false},
		{vm.OpNeq, nil, nil, false, false},
		{vm.OpEq, true, true, true, false},
	}
	for _, tc := range cases {
		slot, err := vm.BinaryOp(tc.op, vm.SlotOf(tc.a), vm.SlotOf(tc.b))
		got := slot.Value()
		if tc.isErr {
			if err == nil {
				t.Errorf("%v %s %v: expected error, got %v", tc.a, tc.op, tc.b, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v %s %v: %v", tc.a, tc.op, tc.b, err)
			continue
		}
		if tc.want != nil && !lang.Equal(got, tc.want) {
			t.Errorf("%v %s %v = %v, want %v", tc.a, tc.op, tc.b, got, tc.want)
		}
	}
	// List concatenation produces a fresh list.
	a, b := &lang.List{Items: []lang.Value{int64(1)}}, &lang.List{Items: []lang.Value{int64(2)}}
	sum, err := vm.BinaryOp(vm.OpAdd, vm.SlotOf(a), vm.SlotOf(b))
	if err != nil {
		t.Fatal(err)
	}
	cat := sum.Value().(*lang.List)
	if len(cat.Items) != 2 {
		t.Fatalf("concat = %v", lang.Format(cat))
	}
	a.Items[0] = int64(99)
	if cat.Items[0] == int64(99) {
		t.Fatal("concatenated list aliases its input")
	}
}

func positiveInf() float64 {
	one, zero := 1.0, 0.0
	return one / zero
}

func TestIndexSemantics(t *testing.T) {
	l := &lang.List{Items: []lang.Value{"a", "b", "c"}}
	m := lang.NewMap()
	m.Items["k"] = int64(7)
	cases := []struct {
		container, key lang.Value
		want           lang.Value
		isErr          bool
	}{
		{l, int64(0), "a", false},
		{l, int64(2), "c", false},
		{l, int64(-1), "c", false}, // negative wraps
		{l, int64(-3), "a", false},
		{l, int64(3), nil, true},
		{l, int64(-4), nil, true},
		{l, "x", nil, true},
		{m, "k", int64(7), false},
		{m, "missing", nil, false}, // missing map key reads null
		{m, int64(1), nil, true},
		{"hello", int64(1), "e", false},
		{"hello", int64(-1), "o", false},
		{"hello", int64(9), nil, true},
		{int64(5), int64(0), nil, true},
	}
	for _, tc := range cases {
		slot, err := vm.Index(vm.SlotOf(tc.container), vm.SlotOf(tc.key))
		got := slot.Value()
		if tc.isErr {
			if err == nil {
				t.Errorf("Index(%v, %v): expected error", tc.container, tc.key)
			}
			continue
		}
		if err != nil {
			t.Errorf("Index(%v, %v): %v", tc.container, tc.key, err)
			continue
		}
		if !lang.Equal(got, tc.want) {
			t.Errorf("Index(%v, %v) = %v, want %v", tc.container, tc.key, got, tc.want)
		}
	}
}

func TestSetIndexSemantics(t *testing.T) {
	setIndex := func(container, key, value lang.Value) error {
		return vm.SetIndex(vm.SlotOf(container), vm.SlotOf(key), vm.SlotOf(value))
	}
	l := &lang.List{Items: []lang.Value{int64(1), int64(2)}}
	if err := setIndex(l, int64(-1), int64(9)); err != nil {
		t.Fatal(err)
	}
	if l.Items[1] != int64(9) {
		t.Fatal("negative index assignment")
	}
	if err := setIndex(l, int64(2), int64(0)); err == nil {
		t.Fatal("out-of-range assignment succeeded")
	}
	if err := setIndex(l, "x", int64(0)); err == nil {
		t.Fatal("string index on list succeeded")
	}
	m := lang.NewMap()
	if err := setIndex(m, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if m.Items["k"] != "v" {
		t.Fatal("map assignment lost")
	}
	if err := setIndex(m, int64(1), "v"); err == nil {
		t.Fatal("int key on map succeeded")
	}
	if err := setIndex("str", int64(0), "x"); err == nil {
		t.Fatal("string assignment succeeded")
	}
}

// TestTiersAgreeOnRandomPrograms generates random arithmetic programs
// and checks the interpreter and the JIT produce identical results (or
// identical error-ness) — the central correctness property behind the
// post-JIT snapshot: execution tier must never change semantics.
func TestTiersAgreeOnRandomPrograms(t *testing.T) {
	type spec struct {
		Seed   uint16
		A, B   int16
		FltRaw uint8
	}
	run := func(src string, jitted bool, args ...lang.Value) (lang.Value, error) {
		mod, err := vm.CompileSource(src)
		if err != nil {
			return nil, err
		}
		v := vm.New(nil)
		if jitted {
			engine := jit.NewEngine(jit.Config{})
			v.JIT = engine
			if _, err := v.RunModule(mod); err != nil {
				return nil, err
			}
			engine.Compile(v.Globals["f"].(*vm.Closure).Fn, nil)
		} else {
			if _, err := v.RunModule(mod); err != nil {
				return nil, err
			}
		}
		return v.CallValue(v.Globals["f"], args)
	}
	f := func(s spec) bool {
		src := randomProgram(uint64(s.Seed))
		a, b := int64(s.A), int64(s.B)
		flt := float64(s.FltRaw) / 16.0
		iv, ierr := run(src, false, a, b, flt)
		jv, jerr := run(src, true, a, b, flt)
		if (ierr == nil) != (jerr == nil) {
			t.Logf("error disagreement on seed %d:\n%s\ninterp: %v\njit: %v", s.Seed, src, ierr, jerr)
			return false
		}
		if ierr != nil {
			return true
		}
		if !lang.Equal(iv, jv) {
			t.Logf("value disagreement on seed %d:\n%s\ninterp: %v\njit: %v", s.Seed, src, iv, jv)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomProgram builds a deterministic random function f(a, b, x) from
// a seed: nested arithmetic, comparisons, conditionals, bounded loops,
// and list/map traffic.
func randomProgram(seed uint64) string {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth <= 0 {
			switch next() % 5 {
			case 0:
				return "a"
			case 1:
				return "b"
			case 2:
				return "x"
			case 3:
				return fmt.Sprintf("%d", int64(next()%19)-9)
			default:
				return fmt.Sprintf("%d.5", next()%7)
			}
		}
		ops := []string{"+", "-", "*", "<", "<=", ">", ">=", "==", "!="}
		op := ops[next()%uint64(len(ops))]
		left, right := expr(depth-1), expr(depth-1)
		if op == "<" || op == ">" || op == "<=" || op == ">=" {
			// Comparison operands must be numeric; comparisons yield
			// bools, which cannot nest into arithmetic, so wrap them
			// in a conditional value.
			return fmt.Sprintf("pick((%s) %s (%s), 1, 0)", left, op, right)
		}
		if op == "==" || op == "!=" {
			return fmt.Sprintf("pick((%s) %s (%s), 2, 3)", left, op, right)
		}
		return fmt.Sprintf("((%s) %s (%s))", left, op, right)
	}
	body := &strings.Builder{}
	fmt.Fprintf(body, "func pick(c, t, e) { if (c) { return t; } return e; }\n")
	fmt.Fprintf(body, "func f(a, b, x) {\n")
	fmt.Fprintf(body, "  let acc = 0;\n  let l = [a, b, 2, 3];\n  let m = {\"v\": x};\n")
	loops := int(next()%3) + 1
	for i := 0; i < loops; i++ {
		fmt.Fprintf(body, "  let i%d = 0;\n  while (i%d < %d) {\n", i, i, next()%5+1)
		fmt.Fprintf(body, "    acc = acc + %s;\n", expr(int(next()%3)+1))
		fmt.Fprintf(body, "    l[i%d %% 4] = acc;\n", i)
		fmt.Fprintf(body, "    m[\"k\" + i%d] = acc;\n", i)
		fmt.Fprintf(body, "    i%d = i%d + 1;\n  }\n", i, i)
	}
	fmt.Fprintf(body, "  for (v in l) { if (v != null) { acc = acc + pick(v == 2, 1, 0); } }\n")
	fmt.Fprintf(body, "  for (k in m) { acc = acc + 1; }\n")
	fmt.Fprintf(body, "  return acc + m.v;\n}\n")
	return body.String()
}
