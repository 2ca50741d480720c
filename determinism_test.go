package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wallClockSites are the only functions of the program that may read
// the host's clock: the gateway's long-poll deadline and fwbench's
// wall-time line. Everything else runs on virtual time, which is what
// makes same-seed runs byte-identical.
var wallClockSites = map[string]bool{
	"cmd/fwsim/main.go:handleEventsStream": true,
	"cmd/fwbench/main.go:main":             true,
}

// TestDeterminismStatic parses every non-test .go file under internal/
// and cmd/ and fails on a time.Now or time.Since outside
// wallClockSites, and on any import of math/rand: randomness comes from
// seeded generators the program owns.
func TestDeterminismStatic(t *testing.T) {
	seen := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			timeName := ""
			for _, imp := range file.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); p {
				case "math/rand", "math/rand/v2":
					t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
				case "time":
					timeName = "time"
					if imp.Name != nil {
						timeName = imp.Name.Name
					}
				}
			}
			if timeName == "" {
				return nil
			}
			for _, decl := range file.Decls {
				site := filepath.ToSlash(path) + ":"
				if fn, ok := decl.(*ast.FuncDecl); ok {
					site += fn.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
						return true
					}
					if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != timeName {
						return true
					}
					if !wallClockSites[site] {
						t.Errorf("%s: time.%s reads the wall clock outside the allowed sites", fset.Position(sel.Pos()), sel.Sel.Name)
					}
					seen[site] = true
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for site := range wallClockSites {
		if !seen[site] {
			t.Errorf("allowed wall-clock site %s no longer reads the clock; drop it from the list", site)
		}
	}
}
