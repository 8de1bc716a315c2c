package zenspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reasons a function that no command, example or perfbench reaches may
// stay in non-test code. No other reason is accepted: a helper that only its
// own package's tests call belongs in that package's _test.go files.
const (
	keptForTableIV = "ROADMAP item 1 step 3 measures TABLE IV with the MDU models, or deletes them"
	keptFacade     = "facade API: the TABLE III presets that DESIGN.md §1 and EXPERIMENTS.md name"
	keptOracle     = "an oracle that a test in another package compares against: "
)

// unreached maps each function TestEveryFunctionRuns lets stay without a
// non-test caller to its reason. Names are qualified by import path, with
// the module's "zenspec/" prefix dropped.
var unreached = map[string]string{
	"internal/predict.NewIntelMDU":      keptForTableIV,
	"internal/predict.NewARMMDU":        keptForTableIV,
	"internal/predict.IntelMDU.Counter": keptForTableIV,
	"internal/predict.IntelMDU.Stats":   keptForTableIV,
	"internal/predict.ARMMDU.Hazard":    keptForTableIV,
	"internal/predict.ARMMDU.Stats":     keptForTableIV,

	"zenspec.Platforms":      keptFacade,
	"zenspec.PlatformByName": keptFacade,

	"internal/pipeline.Golden":                keptOracle + "workload's TestSpecKernelsArchitecturallyCorrect",
	"internal/predict.SSBP.Snapshot":          keptOracle + "revng's TestLabTemplateExact",
	"internal/predict.Unit.Stats":             keptOracle + "revng's TestLabTemplateExact and kernel's TestCloneContinuesLikeOriginal",
	"internal/cache.Hierarchy.Stats":          keptOracle + "revng's TestLabTemplateExact and kernel's TestCloneContinuesLikeOriginal",
	"internal/svcobs.Registry.StableSnapshot": keptOracle + "service's TestStableMetricsAcrossWorkerCounts",
	"internal/harness.SeedCollisions":         keptOracle + "suite's TestTrialSeedNoCollisionsAcrossRegistry",
}

// TestEveryFunctionRuns fails on any function or method of the module that
// non-test code cannot reach, and on any internal package that no command,
// example or perfbench links. It type-checks the non-test files of the
// module and of perfbench (its own module, so a root only a benchmark change
// may edit). The roots are every main, every init and every package-level
// variable's declaration; a function reaches each object its declaration
// uses. A method is also reached when its receiver type is and the method
// belongs to an interface the type or its pointer implements: any interface
// the module's code mentions, or that a package it imports declares.
func TestEveryFunctionRuns(t *testing.T) {
	r := newReach(t, listPackages(t))
	for _, p := range r.orphans {
		t.Errorf("package %s: no command, example or perfbench links it", p)
	}
	for name := range unreached {
		obj, ok := r.byName[name]
		switch {
		case !ok:
			t.Errorf("allowlist names %s, which is not a function of the module", name)
		case r.live[obj]:
			t.Errorf("%s: allowlisted %s has a non-test caller; drop it from the allowlist", r.where(obj), name)
		default:
			r.mark(obj)
		}
	}
	r.flood()
	var dead []string
	for name, obj := range r.byName {
		if !r.live[obj] {
			dead = append(dead, r.where(obj)+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test code reaches it", d)
	}
}

// listedPackage is the part of `go list -json` the check reads.
type listedPackage struct {
	Dir, ImportPath, Name string
	GoFiles, Imports      []string
	Standard              bool
	Module                *struct{ Path string }
}

// listPackages lists the module's packages and perfbench's with every
// dependency, each once, dependencies first.
func listPackages(t *testing.T) []listedPackage {
	var out []listedPackage
	seen := map[string]bool{}
	for _, l := range []struct{ dir, pattern string }{{".", "./..."}, {"perfbench", "."}} {
		cmd := exec.Command("go", "list", "-deps", "-json=Dir,ImportPath,Name,GoFiles,Imports,Standard,Module", l.pattern)
		cmd.Dir = l.dir
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", l.dir, err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		for dec.More() {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				out = append(out, p)
			}
		}
	}
	// Read every directory of the tree, so that go test's result cache
	// sees a file or package being added.
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return err
	})
	return out
}

// reach is the reachability graph over the objects the module and perfbench
// declare at package level.
type reach struct {
	fset    *token.FileSet
	root    string
	edges   map[types.Object][]types.Object
	live    map[types.Object]bool
	queue   []types.Object
	byName  map[string]*types.Func // the module's functions and methods
	orphans []string

	ifaces   []*types.Interface
	typed    []*types.Named // live named types whose methods are resolved
	resolved int
}

func newReach(t *testing.T, pkgs []listedPackage) *reach {
	wd, _ := os.Getwd()
	r := &reach{
		fset:   token.NewFileSet(),
		root:   wd,
		edges:  map[types.Object][]types.Object{},
		live:   map[types.Object]bool{},
		byName: map[string]*types.Func{},
	}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(r.fset, "gc", nil)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	ifaces := map[types.Type]bool{types.Universe.Lookup("error").Type(): true}
	roots := map[string][]types.Object{} // by the package that declares them
	var mains []string
	imports := map[string][]string{}
	for _, lp := range pkgs {
		if lp.Standard {
			continue
		}
		imports[lp.ImportPath] = lp.Imports
		if lp.Name == "main" {
			mains = append(mains, lp.ImportPath)
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(r.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, r.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		for _, tv := range info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces[tv.Type] = true
			}
		}
		checkedModule := lp.Module != nil && lp.Module.Path == "zenspec"
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					r.edges[fn] = uses(info, d)
					if d.Recv == nil && (d.Name.Name == "init" || lp.Name == "main" && d.Name.Name == "main") {
						roots[lp.ImportPath] = append(roots[lp.ImportPath], fn)
					} else if checkedModule {
						r.byName[qualified(fn)] = fn
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[s.Name]
							r.edges[obj] = uses(info, s)
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								roots[lp.ImportPath] = append(roots[lp.ImportPath], uses(info, s)...)
								continue
							}
							for _, name := range s.Names {
								if obj := info.Defs[name]; obj != nil {
									r.edges[obj] = uses(info, s)
								}
							}
						}
					}
				}
			}
		}
	}

	// Interfaces a module package's imports declare, std's included.
	seen := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces[tn.Type()] = true
				}
			}
		}
		for _, q := range p.Imports() {
			scan(q)
		}
	}
	for _, p := range checked {
		scan(p)
	}
	for typ := range ifaces {
		r.ifaces = append(r.ifaces, typ.Underlying().(*types.Interface))
	}

	// Packages a main links; only their inits and variables run.
	linked := map[string]bool{}
	var link func(path string)
	link = func(path string) {
		if linked[path] {
			return
		}
		linked[path] = true
		for _, q := range imports[path] {
			link(q)
		}
	}
	for _, m := range mains {
		link(m)
	}
	for path := range imports {
		if !linked[path] && strings.HasPrefix(path, "zenspec/internal/") {
			r.orphans = append(r.orphans, path)
		}
	}
	sort.Strings(r.orphans)
	for path, objs := range roots {
		if linked[path] {
			for _, obj := range objs {
				r.mark(obj)
			}
		}
	}
	r.flood()
	return r
}

// uses lists the objects a declaration's identifiers refer to, a generic
// function's instances resolved to their origin.
func uses(info *types.Info, n ast.Node) []types.Object {
	var objs []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			objs = append(objs, obj.Origin())
		case *types.Var:
			objs = append(objs, obj.Origin())
		case *types.TypeName, *types.Const:
			objs = append(objs, obj)
		}
		return true
	})
	return objs
}

func (r *reach) mark(obj types.Object) {
	if !r.live[obj] {
		r.live[obj] = true
		r.queue = append(r.queue, obj)
	}
}

// flood marks everything the live objects reach, resolving the methods of
// each live named type through the interfaces it implements, until nothing
// changes.
func (r *reach) flood() {
	for len(r.queue) > 0 || r.resolved < len(r.typed) {
		for len(r.queue) > 0 {
			obj := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			for _, e := range r.edges[obj] {
				r.mark(e)
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.NumMethods() > 0 {
					r.typed = append(r.typed, named)
				}
			}
		}
		for ; r.resolved < len(r.typed); r.resolved++ {
			named := r.typed[r.resolved]
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, iface := range r.ifaces {
				if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						r.mark(sel.Obj().(*types.Func).Origin())
					}
				}
			}
		}
	}
}

// qualified names a function by its package's path within the module, then
// its receiver's type name if a method, then its own.
func qualified(fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), "zenspec/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		name += typ.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// where is an object's file:line relative to the repository root.
func (r *reach) where(obj types.Object) string {
	pos := r.fset.Position(obj.Pos())
	if rel, err := filepath.Rel(r.root, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
