package lang

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	toks, err := Tokenize(`func main(params) { let x = 1.5; return x >= 2 && !done; }`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenType{
		TokenFunc, TokenIdent, TokenLParen, TokenIdent, TokenRParen, TokenLBrace,
		TokenLet, TokenIdent, TokenAssign, TokenFloat, TokenSemi,
		TokenReturn, TokenIdent, TokenGtEq, TokenInt, TokenAnd, TokenBang, TokenIdent, TokenSemi,
		TokenRBrace, TokenEOF,
	}
	if len(toks) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Type != w {
			t.Errorf("token %d = %s, want %s", i, toks[i].Type, w)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("// c++ style\n# python style\nlet x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Type != TokenLet {
		t.Fatalf("comments not skipped: %v", toks[0])
	}
	if toks[0].Line != 3 {
		t.Fatalf("line tracking: %d", toks[0].Line)
	}
}

func TestTokenizeStrings(t *testing.T) {
	toks, err := Tokenize(`"a\nb" 'single' "esc\"q"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Literal != "a\nb" || toks[1].Literal != "single" || toks[2].Literal != `esc"q` {
		t.Fatalf("literals: %q %q %q", toks[0].Literal, toks[1].Literal, toks[2].Literal)
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `"bad\q"`, "§", "&x", "|y"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) succeeded", src)
		}
	}
}

func TestParseProgramShape(t *testing.T) {
	src := `
@jit(cache=true)
func main(params) {
  let l = [1, 2, 3];
  for (x in l) {
    if (x % 2 == 0) { continue; } else { print(x); }
  }
  while (false) { break; }
  return {"n": len(l), "f": func(a) { return a; }};
}
let g = main({});
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(prog.Stmts))
	}
	fd := prog.Function("main")
	if fd == nil {
		t.Fatal("main not found")
	}
	if !fd.HasAnnotation("jit") {
		t.Fatal("annotation lost")
	}
	if fd.Annotations[0].Args["cache"] != "true" {
		t.Fatalf("annotation args: %+v", fd.Annotations[0].Args)
	}
	if len(prog.Functions()) != 1 {
		t.Fatalf("functions = %d", len(prog.Functions()))
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse("let x = 1 + 2 * 3 < 7 == true || false;")
	if err != nil {
		t.Fatal(err)
	}
	let := prog.Stmts[0].(*LetStmt)
	// Top-level operator must be ||.
	or, ok := let.Value.(*BinaryExpr)
	if !ok || or.Op != TokenOr {
		t.Fatalf("top op: %T", let.Value)
	}
	eq := or.Left.(*BinaryExpr)
	if eq.Op != TokenEq {
		t.Fatalf("next op: %v", eq.Op)
	}
	lt := eq.Left.(*BinaryExpr)
	if lt.Op != TokenLt {
		t.Fatalf("compare op: %v", lt.Op)
	}
	sum := lt.Left.(*BinaryExpr)
	if sum.Op != TokenPlus {
		t.Fatalf("sum op: %v", sum.Op)
	}
	prod := sum.Right.(*BinaryExpr)
	if prod.Op != TokenStar {
		t.Fatalf("product op: %v", prod.Op)
	}
}

func TestParseDotSugar(t *testing.T) {
	prog, err := Parse("let v = m.field;")
	if err != nil {
		t.Fatal(err)
	}
	idx := prog.Stmts[0].(*LetStmt).Value.(*IndexExpr)
	if lit, ok := idx.Index.(*StringLit); !ok || lit.Value != "field" {
		t.Fatalf("dot sugar produced %T", idx.Index)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"func {",
		"let = 3;",
		"if x { }",
		"func f(a b) {}",
		"let x = ;",
		"1 + 2 = 3;",
		"for (x of l) {}",
		"@jit(cache=) func f() {}",
		"let m = {1: 2};", // non-colon... actually int keys parse; see below
	}
	for _, src := range cases[:8] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestTypeOfAndTruthy(t *testing.T) {
	cases := []struct {
		v      Value
		ty     Type
		truthy bool
	}{
		{nil, TNull, false},
		{true, TBool, true},
		{false, TBool, false},
		{int64(0), TInt, false},
		{int64(3), TInt, true},
		{0.0, TFloat, false},
		{2.5, TFloat, true},
		{"", TString, false},
		{"x", TString, true},
		{&List{}, TList, false},
		{newList(int64(1)), TList, true},
		{NewMap(), TMap, false},
		{&Native{Name: "f"}, TFunc, true},
	}
	for _, tc := range cases {
		if got := TypeOf(tc.v); got != tc.ty {
			t.Errorf("TypeOf(%v) = %v, want %v", tc.v, got, tc.ty)
		}
		if got := Truthy(tc.v); got != tc.truthy {
			t.Errorf("Truthy(%v) = %v, want %v", tc.v, got, tc.truthy)
		}
	}
}

func TestEqualStructural(t *testing.T) {
	a := newList(int64(1), "x", newList(int64(2)))
	b := newList(int64(1), "x", newList(int64(2)))
	if !Equal(a, b) {
		t.Fatal("structurally equal lists differ")
	}
	b.Items[2].(*List).Items[0] = int64(3)
	if Equal(a, b) {
		t.Fatal("different lists equal")
	}
	m1, m2 := NewMap(), NewMap()
	m1.Items["k"] = int64(1)
	m2.Items["k"] = int64(1)
	if !Equal(m1, m2) {
		t.Fatal("equal maps differ")
	}
	m2.Items["extra"] = nil
	if Equal(m1, m2) {
		t.Fatal("maps with different sizes equal")
	}
	if !Equal(int64(2), 2.0) || !Equal(2.0, int64(2)) {
		t.Fatal("cross-numeric equality failed")
	}
	if Equal(int64(1), "1") {
		t.Fatal("int equals string")
	}
}

func TestFormat(t *testing.T) {
	m := NewMap()
	m.Items["b"] = int64(2)
	m.Items["a"] = "s"
	cases := []struct {
		v    Value
		want string
	}{
		{nil, "null"},
		{true, "true"},
		{int64(-3), "-3"},
		{2.5, "2.5"},
		{"plain", "plain"},
		{newList(int64(1), "x"), `[1, "x"]`},
		{m, `{"a": "s", "b": 2}`},
	}
	for _, tc := range cases {
		if got := Format(tc.v); got != tc.want {
			t.Errorf("Format(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestDeepCopyIndependence(t *testing.T) {
	m := NewMap()
	inner := newList(int64(1))
	m.Items["l"] = inner
	c, err := DeepCopy(m)
	if err != nil {
		t.Fatal(err)
	}
	inner.Items[0] = int64(99)
	copied := c.(*Map).Items["l"].(*List)
	if copied.Items[0] != int64(1) {
		t.Fatal("copy shares mutable state")
	}
}

func TestDeepCopyGlobalsSkipsNatives(t *testing.T) {
	globals := map[string]Value{
		"data":  newList(int64(1)),
		"print": &Native{Name: "print"},
	}
	copied, err := DeepCopyGlobals(globals, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := copied["print"]; ok {
		t.Fatal("native survived skipNatives")
	}
	if _, ok := copied["data"]; !ok {
		t.Fatal("data lost")
	}
	keep, err := DeepCopyGlobals(globals, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := keep["print"]; !ok {
		t.Fatal("native dropped without skipNatives")
	}
}

func TestDeepCopyCycleGuard(t *testing.T) {
	l := &List{}
	l.Items = append(l.Items, l) // cycle
	if _, err := DeepCopy(l); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("cycle err = %v", err)
	}
}

// A guest builds these with push(l, l); walking one without a guard
// overflows the Go stack and kills the process.
func TestCyclicValuesFormatAndCompare(t *testing.T) {
	l := newList(int64(1))
	l.Items = append(l.Items, l, l)
	if got := Format(l); got != "[1, [...], [...]]" {
		t.Errorf("Format(cyclic list) = %s", got)
	}
	m := NewMap()
	m.Items["self"] = m
	m.Items["l"] = l
	if got := Format(m); got != `{"l": [1, [...], [...]], "self": {...}}` {
		t.Errorf("Format(cyclic map) = %s", got)
	}
	other := newList(int64(1))
	other.Items = append(other.Items, other, other)
	if !Equal(l, l) || !Equal(l, other) || !Equal(m, m) {
		t.Error("cyclic values of the same shape compare unequal")
	}
	other.Items[0] = int64(2)
	if Equal(l, other) {
		t.Error("cyclic lists with different elements compare equal")
	}
	// A container that merely appears twice is not a cycle.
	shared := newList("x")
	if got := Format(newList(shared, shared)); got != `[["x"], ["x"]]` {
		t.Errorf("Format(shared sublist) = %s", got)
	}
}

// Property: Equal(v, DeepCopy(v)) for generated scalar/list/map values.
func TestDeepCopyEqualProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		l := &List{}
		m := NewMap()
		for i, n := range ints {
			l.Items = append(l.Items, n)
			if i < len(strs) {
				m.Items[strs[i]] = n
			}
		}
		root := NewMap()
		root.Items["l"] = l
		root.Items["m"] = m
		c, err := DeepCopy(root)
		if err != nil {
			return false
		}
		return Equal(root, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newList(items ...Value) *List { return &List{Items: items} }
