package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// stdlibConsts are the standard-library constants option values are
// written with, so a write of them reads as one value.
var stdlibConsts = map[string]bool{
	"time.Nanosecond": true, "time.Microsecond": true, "time.Millisecond": true,
	"time.Second": true, "time.Minute": true, "time.Hour": true,
}

// optionField is one exported field of an option type and what the
// program writes into it.
type optionField struct {
	pos, dir, name string
	// varied is set by a write from outside the field's package or of
	// a non-constant value.
	varied bool
	// values holds the constants written inside the field's package.
	values map[string]bool
}

// TestNoTestOnlyOptions parses every non-test .go file of the repo
// (bench/ included) and fails on an exported field of an exported
// struct declared under internal/ whose type name ends in one of
// optionTypeSuffixes, unless the program gives it more than one value:
// a write from outside the field's package, a write of a non-constant
// value, or two distinct constants (compared as source text). A
// constant written inside the field's own package — a default, a
// default fill, a Default…() literal — is one value however often it
// is written: an option that only tests vary is a configuration the
// program never runs, and one with a single value in use is a constant.
//
// A keyed or positional composite literal counts only for its own type,
// named as T, pkg.T or T[…], and so do untyped element literals inside
// []T{…} and map[K]T{…}. An assignment x.F = v, and &x.F, match by
// name: every option field named F, because the type of x is unknown
// without type checking, so a field sharing its name with a varied one
// is missed. Only where x is a receiver, parameter or var of the
// enclosing function declared with its type does the assignment count
// for that type's field alone.
func TestNoTestOnlyOptions(t *testing.T) {
	type source struct {
		dir     string
		file    *ast.File
		imports map[string]string // local name → package dir, or the std path
	}
	var sources []source
	fields := map[string]*optionField{}   // dir.Type.Field
	byName := map[string][]*optionField{} // Field
	order := map[string][]string{}        // dir.Type → field names, in order
	consts := map[string]bool{}           // dir.Name
	eachNonTestFile(t, func(fset *token.FileSet, file *ast.File, internal bool) {
		src := source{filepath.ToSlash(filepath.Dir(fset.Position(file.Pos()).Filename)), file, map[string]string{}}
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if dir, ok := strings.CutPrefix(path, "repro/"); ok {
				path = dir
			}
			src.imports[name] = path
		}
		sources = append(sources, src)
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if gd.Tok == token.CONST {
							consts[src.dir+"."+id.Name] = true
						}
					}
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if !internal || !ok || !spec.Name.IsExported() || !hasOptionSuffix(spec.Name.Name) {
						continue
					}
					key := src.dir + "." + spec.Name.Name
					order[key] = []string{}
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							order[key] = append(order[key], id.Name)
							if !id.IsExported() {
								continue
							}
							of := &optionField{pos: fset.Position(id.Pos()).String(), dir: src.dir,
								name: spec.Name.Name + "." + id.Name, values: map[string]bool{}}
							fields[key+"."+id.Name] = of
							byName[id.Name] = append(byName[id.Name], of)
						}
					}
				}
			}
		}
	})

	for _, src := range sources {
		// typeKey names the type a literal of type expression e builds,
		// as dir.Type, or "" when it is not a named type.
		var typeKey func(e ast.Expr) string
		typeKey = func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return src.dir + "." + e.Name
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok && src.imports[pkg.Name] != "" {
					return src.imports[pkg.Name] + "." + e.Sel.Name
				}
			case *ast.IndexExpr:
				return typeKey(e.X)
			case *ast.IndexListExpr:
				return typeKey(e.X)
			case *ast.StarExpr:
				return typeKey(e.X)
			case *ast.ParenExpr:
				return typeKey(e.X)
			}
			return ""
		}
		var isConst func(e ast.Expr) bool
		isConst = func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.BasicLit:
				return true
			case *ast.Ident:
				return e.Name == "true" || e.Name == "false" || e.Name == "nil" || consts[src.dir+"."+e.Name]
			case *ast.SelectorExpr:
				pkg, ok := e.X.(*ast.Ident)
				if !ok {
					return false
				}
				name := src.imports[pkg.Name] + "." + e.Sel.Name
				return consts[name] || stdlibConsts[name]
			case *ast.ParenExpr:
				return isConst(e.X)
			case *ast.UnaryExpr:
				return e.Op != token.AND && isConst(e.X)
			case *ast.BinaryExpr:
				return isConst(e.X) && isConst(e.Y)
			case *ast.CallExpr:
				// A conversion of a constant, such as time.Duration(2).
				_, isType := e.Fun.(*ast.SelectorExpr)
				if id, ok := e.Fun.(*ast.Ident); ok {
					isType = basicTypes[id.Name]
				}
				return isType && len(e.Args) == 1 && isConst(e.Args[0])
			}
			return false
		}
		write := func(f *optionField, value ast.Expr) {
			switch {
			case f == nil:
			case f.dir != src.dir || value == nil || !isConst(value):
				f.varied = true
			default:
				f.values[types.ExprString(value)] = true
			}
		}
		var literal func(cl *ast.CompositeLit, typ ast.Expr)
		literal = func(cl *ast.CompositeLit, typ ast.Expr) {
			elems := func(key, value ast.Expr) {
				for _, e := range cl.Elts {
					typ := value
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.CompositeLit); ok && k.Type == nil && key != nil {
							literal(k, key)
						}
						e = kv.Value
					}
					if el, ok := e.(*ast.CompositeLit); ok && el.Type == nil {
						literal(el, typ)
					}
				}
			}
			switch tt := typ.(type) {
			case *ast.ArrayType:
				elems(nil, tt.Elt)
				return
			case *ast.MapType:
				elems(tt.Key, tt.Value)
				return
			}
			key := typeKey(typ)
			names, ok := order[key]
			if !ok {
				return
			}
			for i, e := range cl.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						write(fields[key+"."+id.Name], kv.Value)
					}
				} else if i < len(names) {
					write(fields[key+"."+names[i]], e)
				}
			}
		}
		// declared maps the variables of the function being walked to
		// the type they were declared with, where the source names it.
		declared := map[string]ast.Expr{}
		declare := func(fl *ast.FieldList) {
			for _, f := range fl.List {
				for _, id := range f.Names {
					declared[id.Name] = f.Type
				}
			}
		}
		assign := func(lhs, value ast.Expr) {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if x, ok := sel.X.(*ast.Ident); ok && declared[x.Name] != nil {
				key := typeKey(declared[x.Name])
				write(fields[key+"."+sel.Sel.Name], value)
				return
			}
			for _, f := range byName[sel.Sel.Name] {
				write(f, value)
			}
		}
		ast.Inspect(src.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				clear(declared)
				if n.Recv != nil {
					declare(n.Recv)
				}
				declare(n.Type.Params)
			case *ast.FuncLit:
				declare(n.Type.Params)
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id.Name] = n.Type
				}
			case *ast.CompositeLit:
				if n.Type != nil {
					literal(n, n.Type)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var value ast.Expr // nil: not one plain value
					if len(n.Lhs) == len(n.Rhs) {
						value = n.Rhs[i]
					}
					if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE {
						delete(declared, id.Name)
					} else if n.Tok != token.ASSIGN {
						assign(lhs, nil)
					} else {
						assign(lhs, value)
					}
				}
			case *ast.IncDecStmt:
				assign(n.X, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					assign(n.X, nil)
				}
			}
			return true
		})
	}

	var failed []*optionField
	for _, f := range fields {
		if !f.varied && len(f.values) < 2 {
			failed = append(failed, f)
		}
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].pos < failed[j].pos })
	for _, f := range failed {
		if len(f.values) == 0 {
			t.Errorf("%s: %s is set by no non-test code; delete the option with its tests", f.pos, f.name)
		} else {
			t.Errorf("%s: %s has one value in use; make it a constant where it is used", f.pos, f.name)
		}
	}
}

// basicTypes are the predeclared types a constant conversion names.
var basicTypes = map[string]bool{
	"int": true, "int32": true, "int64": true, "uint": true, "uint32": true, "uint64": true,
	"float64": true, "string": true, "bool": true,
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
