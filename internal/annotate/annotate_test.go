package annotate

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

const userSrc = `
// A simple serverless function.
func helper(x) {
  return x * 2;
}

func main(params) {
  return helper(params.n);
}
`

func TestAnnotateAddsJITAndDrivers(t *testing.T) {
	res, err := Annotate(userSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(res.Source, "@jit(cache=true)\n"); n != 2 {
		t.Fatalf("%d functions annotated, want 2:\n%s", n, res.Source)
	}
	prog, err := lang.Parse(res.Source)
	if err != nil {
		t.Fatalf("annotated source does not parse: %v", err)
	}
	for _, name := range []string{"helper", "main"} {
		fd := prog.Function(name)
		if fd == nil || !fd.HasAnnotation("jit") {
			t.Errorf("%s missing @jit", name)
		}
	}
	for _, name := range []string{"__fireworks_jit", "__fireworks_snapshot", "__fireworks_continue", "__fireworks_main"} {
		if prog.Function(name) == nil {
			t.Errorf("driver %s missing", name)
		}
	}
	// The generated drivers themselves must not be @jit-annotated.
	if prog.Function("__fireworks_main").HasAnnotation("jit") {
		t.Error("driver annotated")
	}
}

func TestAnnotatePreservesUserLines(t *testing.T) {
	res, err := Annotate(userSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"// A simple serverless function.", "return x * 2;"} {
		if !strings.Contains(res.Source, line) {
			t.Errorf("user line %q lost", line)
		}
	}
}

func TestAnnotateRespectsExistingAnnotation(t *testing.T) {
	src := "@jit(cache=true)\nfunc main(params) { return 1; }"
	res, err := Annotate(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(res.Source, "@jit") != 1 {
		t.Fatalf("duplicate @jit:\n%s", res.Source)
	}
}

func TestAnnotateCustomEntry(t *testing.T) {
	src := `func handler(req) { return req; }`
	res, err := Annotate(src, Options{Entry: "handler"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Source, "handler(__fireworks_default_params())") {
		t.Fatal("driver does not call custom entry")
	}
}

func TestAnnotateErrors(t *testing.T) {
	cases := []struct {
		name, src, entry, sub string
	}{
		{"syntax", "func main(", "", "user source"},
		{"noEntry", "func other(p) { return p; }", "", `entry function "main" not found`},
		{"badArity", "func main(a, b) { return a; }", "", "exactly one params argument"},
		{"reserved", "func __fireworks_jit() {} func main(p) { return p; }", "", "reserved function"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Annotate(tc.src, Options{Entry: tc.entry})
			if err == nil || !strings.Contains(err.Error(), tc.sub) {
				t.Fatalf("err = %v, want %q", err, tc.sub)
			}
		})
	}
}

func TestAnnotateIndentedFunctions(t *testing.T) {
	// A decorator inserted before an indented declaration keeps the
	// indentation so column-sensitive readers stay happy.
	src := "func main(params) {\n  func nested(x) { return x; }\n  return nested(params);\n}"
	res, err := Annotate(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the top-level main is annotated (nested decls are not
	// module functions).
	if strings.Count(res.Source, "@jit") != 1 || !strings.HasPrefix(res.Source, "@jit(cache=true)\nfunc main") {
		t.Fatalf("annotated:\n%s", res.Source)
	}
}

// TestTreeKeepsUserLines: the installed tree decorates the user's
// declarations where they are — nothing moves, so guest errors name the
// user's own lines — and appends the drivers after them.
func TestTreeKeepsUserLines(t *testing.T) {
	prog, err := lang.Parse(userSrc)
	if err != nil {
		t.Fatal(err)
	}
	decorated, err := Tree(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fns := prog.Functions()
	if len(decorated) != 2 || len(fns) != 6 {
		t.Fatalf("%d decorated, %d functions; want 2 and 2 + 4 drivers", len(decorated), len(fns))
	}
	for i, want := range []struct {
		name string
		line int
	}{{"helper", 3}, {"main", 7}} {
		if fn := fns[i]; fn.Name != want.name || fn.Line() != want.line || !fn.HasAnnotation("jit") {
			t.Errorf("function %d: %s on line %d, jit %v; want %s on line %d with jit",
				i, fn.Name, fn.Line(), fn.HasAnnotation("jit"), want.name, want.line)
		}
	}
	if fns[2].Name != "__fireworks_jit" || fns[5].Name != "__fireworks_main" || fns[5].HasAnnotation("jit") {
		t.Errorf("drivers: %s .. %s", fns[2].Name, fns[5].Name)
	}
}
