package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
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
		walkSources(t, root, func(path string, fset *token.FileSet, file *ast.File) {
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
				return
			}
			for _, decl := range file.Decls {
				site := path + ":"
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
		})
	}
	for site := range wallClockSites {
		if !seen[site] {
			t.Errorf("allowed wall-clock site %s no longer reads the clock; drop it from the list", site)
		}
	}
}

// TestVirtualTimeIsCharged fails on a call of a method named Advance or
// AdvanceTo in non-test code under internal/ outside internal/vclock:
// simulated work moves an invocation's clock only through a labelled
// Charge, so every slice of virtual time is in the clock's ledger.
// Clock.Advance is a bookless timeline step for cmd/'s request
// timelines.
func TestVirtualTimeIsCharged(t *testing.T) {
	walkSources(t, "internal", func(path string, fset *token.FileSet, file *ast.File) {
		if strings.HasPrefix(path, "internal/vclock/") {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Advance" || sel.Sel.Name == "AdvanceTo") {
				t.Errorf("%s: %s moves virtual time without a label; use Charge", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
}

// walkSources parses every non-test .go file under root and hands it to
// visit with its slash-separated path.
func walkSources(t *testing.T, root string, visit func(path string, fset *token.FileSet, file *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), fset, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// clockAndScope names the one function under internal/ that may take
// both an invocation clock and an event scope: fault injection also
// serves clockless sites (the message bus, cluster placement), which
// stamp their events with a time of their own.
var clockAndScope = map[string]bool{"(*repro/internal/faults.Plane).InjectTraced": true}

// chargedSeries are the instruments that only repeat a labelled charge:
// the clock's ledger records them, through internal/vclock's one
// label-to-instrument binding.
var chargedSeries = []string{
	"vmm_kernel_boots_total", "vmm_kernel_boot_duration",
	"vmm_snapshot_restores_total", "vmm_snapshot_restore_duration",
	"vmm_snapshots_taken_total", "vmm_snapshot_capture_duration",
	"vmm_warm_resumes_total", "retries_total", "retry_backoff_seconds",
}

// TestOneRecordPerCharge type-checks the non-test code under internal/
// and fails on a function that takes both a *vclock.Clock and an
// *events.Scope outside clockAndScope — the clock carries its
// invocation's scope, so a second parameter is a second record that can
// disagree with it — and on any chargedSeries name written in non-test
// code under internal/ or cmd/ anywhere but once, in
// internal/vclock/vclock.go: each is registered and recorded by the
// binding alone.
func TestOneRecordPerCharge(t *testing.T) {
	var fset *token.FileSet
	byDir := map[string][]*ast.File{}
	named := map[string][]string{}
	eachNonTestFile(t, func(fs *token.FileSet, file *ast.File, internal bool) {
		fset = fs
		path := fs.Position(file.Package).Filename
		if ok, err := build.Default.MatchFile(filepath.Dir(path), filepath.Base(path)); err != nil {
			t.Fatal(err)
		} else if ok && internal {
			byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], file)
		}
		if !internal && !strings.HasPrefix(filepath.ToSlash(path), "cmd/") {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && slices.Contains(chargedSeries, s) {
					named[s] = append(named[s], fs.Position(lit.Pos()).String())
				}
			}
			return true
		})
	})
	for _, name := range chargedSeries {
		if at := named[name]; len(at) != 1 || !strings.HasPrefix(filepath.ToSlash(at[0]), "internal/vclock/vclock.go:") {
			t.Errorf("%s is named at %v; only internal/vclock/vclock.go's binding may name it, once", name, at)
		}
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{}, Types: map[ast.Expr]types.TypeAndValue{},
		Instances: map[*ast.Ident]types.Instance{}}
	im := &repoImporter{t: t, fset: fset, byDir: byDir, info: info, std: importer.ForCompiler(fset, "gc", nil), done: map[string]*types.Package{}}
	is := func(typ types.Type, pkg, name string) bool {
		p, ok := typ.(*types.Pointer)
		if !ok {
			return false
		}
		n, ok := p.Elem().(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkg && n.Obj().Name() == name
	}
	seen := map[string]bool{}
	for dir, files := range byDir {
		im.Import(path.Join("repro", filepath.ToSlash(dir)))
		for _, file := range files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				var clock, scope bool
				params := fn.Type().(*types.Signature).Params()
				for i := range params.Len() {
					clock = clock || is(params.At(i).Type(), "repro/internal/vclock", "Clock")
					scope = scope || is(params.At(i).Type(), "repro/internal/events", "Scope")
				}
				if clock && scope {
					seen[fn.FullName()] = true
					if !clockAndScope[fn.FullName()] {
						t.Errorf("%s: %s takes a clock and a scope; read the scope from the clock", fset.Position(fd.Pos()), fn.FullName())
					}
				}
			}
		}
	}
	for name := range clockAndScope {
		if !seen[name] {
			t.Errorf("allowlisted %s no longer takes a clock and a scope; drop it from the list", name)
		}
	}
}
