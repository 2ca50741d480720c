package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// calledOnlyElsewhere names functions under internal/ that no non-test
// file of the repo calls but that must stay, each with its reason.
var calledOnlyElsewhere = map[string]string{
	"Walked":     "bench_test.go's exact instruments/sample gate reads it",
	"WindowWork": "bench_test.go's exact blocks_stepped and samples_moved gates read it",
	"Enqueue":    "the scripted-fault seam of the fault-injection tests",
	"Send":       "the paper's Fig 5 NAT path, awaiting a contract reader",
	"Reply":      "the paper's Fig 5 NAT path, awaiting a contract reader",
	"TopicCount": "the lifecycle tests' per-invocation topic leak check; no report exposes it",
}

// stdlibCalls are method names the standard library calls through its
// interfaces, so a declaration needs no caller in the repo.
var stdlibCalls = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true, "Error": true, "Is": true, "String": true,
}

// TestNoTestOnlyEntryPoints parses every non-test .go file of the repo
// (bench/ included) and fails on a function or method declared under
// internal/ whose name no non-test file uses: code that only its own
// tests reach is not part of the program. A declaration is not a use of
// itself, and neither is a method of an interface declared under
// internal/: otherwise one uncalled interface method would keep every
// implementation alive. The check goes by name, not by type, so a dead
// function sharing its name with a live one is missed; that is the
// price of running without type checking.
func TestNoTestOnlyEntryPoints(t *testing.T) {
	used := map[string]bool{}
	type decl struct{ pos, name string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declared := map[*ast.Ident]bool{}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if internal && fn.Name.Name != "init" {
				decls = append(decls, decl{fset.Position(fn.Pos()).String(), fn.Name.Name})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				// Inspect visits the interface before its method names.
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						if internal {
							declared[id] = true
						}
					}
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos })
	for _, d := range decls {
		if !used[d.name] && calledOnlyElsewhere[d.name] == "" && !stdlibCalls[d.name] {
			t.Errorf("%s: %s is called by no non-test code; delete it with its tests", d.pos, d.name)
		}
	}
	for name := range calledOnlyElsewhere {
		if used[name] {
			t.Errorf("allowlisted %s is used by non-test code; drop it from the list", name)
		}
	}
}
