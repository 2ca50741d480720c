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
	eachNonTestFile(t, func(fset *token.FileSet, file *ast.File, internal bool) {
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
	})
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

// optionTypeSuffixes name the struct types a caller configures a
// component with.
var optionTypeSuffixes = []string{"Options", "Config", "Rule", "Source", "Policy", "Spec"}

// TestNoTestOnlyOptions parses every non-test .go file of the repo
// (bench/ included) and fails on an exported field of an exported
// struct declared under internal/ whose type name ends in one of
// optionTypeSuffixes, when no non-test file sets a field of that name:
// as a composite-literal key, on the left of an assignment, or as
// &x.F. An option that only tests set is a configuration the program
// never runs. Like TestNoTestOnlyEntryPoints the check goes by name,
// so a dead field sharing its name with a live one is missed.
func TestNoTestOnlyOptions(t *testing.T) {
	set := map[string]bool{}
	type field struct{ pos, name string }
	var fields []field
	eachNonTestFile(t, func(fset *token.FileSet, file *ast.File, internal bool) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !internal || !ok || !n.Name.IsExported() || !hasOptionSuffix(n.Name.Name) {
					return true
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.IsExported() {
							fields = append(fields, field{fset.Position(id.Pos()).String(), n.Name.Name + "." + id.Name})
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					set[sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	sort.Slice(fields, func(i, j int) bool { return fields[i].pos < fields[j].pos })
	for _, f := range fields {
		if _, name, _ := strings.Cut(f.name, "."); !set[name] {
			t.Errorf("%s: %s is set by no non-test code; delete the option with its tests", f.pos, f.name)
		}
	}
}

func hasOptionSuffix(typeName string) bool {
	for _, s := range optionTypeSuffixes {
		if strings.HasSuffix(typeName, s) {
			return true
		}
	}
	return false
}

// eachNonTestFile parses every non-test .go file of the repo (bench/
// included; hidden and testdata directories skipped) and calls visit
// with it, saying whether it lies under internal/.
func eachNonTestFile(t *testing.T, visit func(fset *token.FileSet, file *ast.File, internal bool)) {
	t.Helper()
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
		visit(fset, file, strings.HasPrefix(filepath.ToSlash(path), "internal/"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
