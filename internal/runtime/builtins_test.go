package runtime

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/vclock"
)

// evalBuiltin runs `return <expr>;` inside a fresh Node runtime.
func evalBuiltin(t *testing.T, expr string) (lang.Value, error) {
	t.Helper()
	rt := New(LangNode, vclock.New())
	rt.Boot()
	if err := rt.LoadModule("func probe(a, b) { return " + expr + "; }"); err != nil {
		t.Fatalf("load %q: %v", expr, err)
	}
	return rt.Call("probe", &lang.List{Items: []lang.Value{int64(1), int64(2), int64(3)}}, "  padded  ")
}

func TestBuiltinHappyPaths(t *testing.T) {
	cases := []struct {
		expr string
		want lang.Value
	}{
		{`len("abcd")`, int64(4)},
		{`len(a)`, int64(3)},
		{`len({"x": 1})`, int64(1)},
		{`str(42)`, "42"},
		{`str(null)`, "null"},
		{`int("17")`, int64(17)},
		{`int(" 17 ")`, int64(17)},
		{`int(3.9)`, int64(3)},
		{`int(true)`, int64(1)},
		{`int(false)`, int64(0)},
		{`float("2.5")`, 2.5},
		{`float(2)`, 2.0},
		{`type(1)`, "int"},
		{`type(1.5)`, "float"},
		{`type("s")`, "string"},
		{`type(null)`, "null"},
		{`type([])`, "list"},
		{`type({})`, "map"},
		{`len(push([1], 2))`, int64(2)},
		{`pop([1, 9])`, int64(9)},
		{`join(keys({"b": 1, "a": 2}), ",")`, "a,b"},
		{`has({"k": 1}, "k")`, true},
		{`has({"k": 1}, "z")`, false},
		{`len(range(5))`, int64(5)},
		{`join([1, 2, 3], "-")`, "1-2-3"},
		{`len(split("a,b,c", ","))`, int64(3)},
		{`substr("hello", 1, 3)`, "ell"},
		{`substr("hello", 3, 99)`, "lo"},
		{`substr("hello", -2, 2)`, "he"},
		{`contains("hello", "ell")`, true},
		{`contains([1, 2], 2)`, true},
		{`contains([1, 2], 9)`, false},
		{`upper("aBc")`, "ABC"},
		{`lower("AbC")`, "abc"},
		{`trim(b)`, "padded"},
		{`repeat("ab", 3)`, "ababab"},
		{`abs(-4)`, int64(4)},
		{`abs(-2.5)`, 2.5},
		{`min(3, 7)`, int64(3)},
		{`max(3, 7.5)`, 7.5},
		{`min(2.5, 3)`, 2.5},
		{`floor(3.8)`, int64(3)},
		{`floor(4)`, int64(4)},
		{`sqrt(16)`, 4.0},
		{`json_encode({"a": 1})`, `{"a":1}`},
		{`json_decode("[1, 2]")[1]`, int64(2)},
	}
	for _, tc := range cases {
		got, err := evalBuiltin(t, tc.expr)
		if err != nil {
			t.Errorf("%s: %v", tc.expr, err)
			continue
		}
		if !lang.Equal(got, tc.want) {
			t.Errorf("%s = %v (%T), want %v", tc.expr, got, got, tc.want)
		}
	}
}

func TestBuiltinErrorPaths(t *testing.T) {
	cases := []struct {
		expr, sub string
	}{
		{`len(1)`, "len: unsupported"},
		{`int("nope")`, "cannot parse"},
		{`int([])`, "int: unsupported"},
		{`float("x")`, "cannot parse"},
		{`float([])`, "float: unsupported"},
		{`push(1, 2)`, "must be list"},
		{`pop([])`, "empty list"},
		{`pop("s")`, "must be list"},
		{`keys([1])`, "must be map"},
		{`has([1], "k")`, "must be map"},
		{`has({}, 1)`, "key must be string"},
		{`remove([1], "k")`, "must be map"},
		{`range(-1)`, "out of supported range"},
		{`range("x")`, "must be int"},
		{`join("s", ",")`, "must be list"},
		{`join([1], 2)`, "must be string"},
		{`split(1, ",")`, "must be string"},
		{`split("a", 2)`, "must be string"},
		{`substr(1, 0, 1)`, "must be string"},
		{`substr("s", "a", 1)`, "must be ints"},
		{`contains(1, 2)`, "unsupported"},
		{`contains("s", 1)`, "needle must be string"},
		{`upper(1)`, "must be string"},
		{`lower(1)`, "must be string"},
		{`trim(1)`, "must be string"},
		{`repeat(1, 2)`, "must be string"},
		{`repeat("x", -1)`, "non-negative"},
		{`abs("x")`, "unsupported"},
		{`min("a", 1)`, "unsupported"},
		{`floor("x")`, "unsupported"},
		{`sqrt("x")`, "unsupported"},
		{`json_decode(1)`, "must be string"},
		{`json_decode("{bad")`, "json_decode"},
		{`json_decode("{}{}")`, "trailing data"},
		{`json_decode("[1] x")`, "invalid character 'x'"},
		{`json_decode("{} }")`, "invalid character '}'"},
	}
	for _, tc := range cases {
		_, err := evalBuiltin(t, tc.expr)
		if err == nil || !strings.Contains(err.Error(), tc.sub) {
			t.Errorf("%s: err = %v, want substring %q", tc.expr, err, tc.sub)
		}
	}
}

func TestRemoveBuiltinMutates(t *testing.T) {
	rt := New(LangNode, vclock.New())
	rt.Boot()
	if err := rt.LoadModule(`
func f() {
  let m = {"a": 1, "b": 2};
  remove(m, "a");
  remove(m, "ghost");
  return m;
}`); err != nil {
		t.Fatal(err)
	}
	got, err := rt.Call("f")
	if err != nil {
		t.Fatal(err)
	}
	m := got.(*lang.Map)
	if len(m.Items) != 1 || m.Items["b"] != int64(2) {
		t.Fatalf("m = %v", lang.Format(m))
	}
}

func TestRepeatSizeGuard(t *testing.T) {
	for _, expr := range []string{
		`repeat("xxxxxxxxxx", 100000000)`,
		// len * count wraps past int64: the guard must not multiply.
		`repeat("xx", 4611686018427387904)`,
	} {
		_, err := evalBuiltin(t, expr)
		if err == nil || !strings.Contains(err.Error(), "too large") {
			t.Fatalf("%s: err = %v", expr, err)
		}
	}
}

func TestNowMsTracksClock(t *testing.T) {
	clock := vclock.New()
	rt := New(LangNode, clock)
	rt.Boot()
	if err := rt.LoadModule(`func f() { return now_ms(); }`); err != nil {
		t.Fatal(err)
	}
	got, err := rt.Call("f")
	if err != nil {
		t.Fatal(err)
	}
	// Boot + module load elapsed on the virtual clock.
	if got.(int64) <= 0 || got.(int64) != clock.Now().Milliseconds() {
		t.Fatalf("now_ms = %v, clock = %v", got, clock.Now())
	}
}

func TestPrintFormatsLikeFormat(t *testing.T) {
	rt := New(LangNode, vclock.New())
	rt.Boot()
	if err := rt.LoadModule(`func f() { print("x", 1, [2], {"k": null}); }`); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call("f"); err != nil {
		t.Fatal(err)
	}
	want := "x 1 [2] {\"k\": null}\n"
	if rt.Stdout.String() != want {
		t.Fatalf("stdout = %q, want %q", rt.Stdout.String(), want)
	}
}

func TestToGoRejectsFunctions(t *testing.T) {
	if _, err := ToGo(&lang.Native{Name: "f"}); err == nil {
		t.Fatal("native converted to host data")
	}
	v, err := ToGo(&lang.List{Items: []lang.Value{int64(1), "a", true, nil}})
	if err != nil {
		t.Fatal(err)
	}
	items := v.([]any)
	if items[0] != int64(1) || items[1] != "a" || items[2] != true || items[3] != nil {
		t.Fatalf("items = %v", items)
	}
}

func TestFromGoVariants(t *testing.T) {
	v, err := FromGo(map[string]any{"n": 3, "f": 1.5, "l": []any{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	m := v.(*lang.Map)
	if m.Items["n"] != int64(3) || m.Items["f"] != 1.5 {
		t.Fatalf("m = %v", lang.Format(m))
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Fatal("struct converted")
	}
}
