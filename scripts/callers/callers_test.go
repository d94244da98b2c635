// Package callers is the reachability census `make callers` runs: every func
// or method of the root module is reached from an entry point of the program,
// or it is gone. It type-checks the root module and every module nested in it
// (benchmark/) with the standard library alone and walks the call graph from
//
//   - each main and init, and every package-level var initialiser;
//   - each method whose name belongs to an interface type that appears in the
//     type-checked code, or to one of the standard-library interfaces the
//     standard library calls through `any` (anyInterfaces);
//   - each exempt name, keyed by its qualified name, with the reason it stays.
//
// Every use or selection of a func in a reached body reaches it. Funcs under
// a nested module (benchmark/) are walked but never reported: they are users.
// An exemption that names nothing, or a func reached without it, is stale and
// fails the census too.
//
// Registered means sent: every command name a Name() method in
// internal/commands returns must appear as a string literal in non-test Go
// outside internal/commands. No figure, workload, example or tool sends a
// command that fails this, only its own tests do, and it goes too.
package callers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exempt maps the qualified name of a func nothing reaches to the reason it
// stays: a probe or reference the suites call, or public API kept for
// library callers.
var exempt = map[string]string{
	"viracocha.System.Register":                         "layer-3 extension point: a library caller registers its own command",
	"viracocha.System.Stats":                            "public per-request statistics of the facade; the stats suites read them",
	"viracocha.System.Trace":                            "public event trace of the facade; the fault and recovery suites read it",
	"viracocha.Client.Submit":                           "public non-blocking submit of the facade client",
	"viracocha.Client.Collect":                          "public collect of a submitted request",
	"viracocha.Client.Cancel":                           "public cancel of a submitted request",
	"viracocha.Client.Stats":                            "public per-request statistics of the facade client",
	"viracocha.RemoteClient.Epoch":                      "RemoteClient probe: the durable suites assert the session epoch through it",
	"viracocha.RemoteClient.SessionID":                  "RemoteClient probe the durable and memo suites assert on",
	"viracocha.DialResume":                              "public durable-session dial (DialRetry + Resume) the durable, restart and memo suites drive",
	"viracocha.System.WALErr":                           "WAL sink probe the restart suite asserts on",
	"viracocha/internal/core.Scheduler.LiveWorkers":     "scheduler probe the fault, churn and restart suites assert on",
	"viracocha/internal/core.Scheduler.Draining":        "scheduler probe the drain suite asserts on",
	"viracocha/internal/core.Scheduler.FinishedCount":   "scheduler probe the bounded-finished-table tests assert on",
	"viracocha/internal/core.Scheduler.CheckInvariants": "invariant checker the recovery and soak suites call on blockJournal",
	"viracocha/internal/trace.Log.Dropped":              "trace probe: the bounded-log tests count what the ring dropped",
	"viracocha/internal/trace.Log.Matching":             "trace probe the recovery suite asserts on",
	"viracocha/internal/trace.Log.CountMatching":        "trace probe the recovery and memo suites assert on",
	"viracocha/internal/storage.MemBackend.Put":         "in-memory storage fake: the loader and storage suites fill it",
	"viracocha/internal/storage.NewMemBackend":          "in-memory storage fake the loader and storage suites substitute for a disk",
	"viracocha/internal/mathx.Lambda2":                  "λ2 oracle the vortex and dataset suites compare the fast kernels against",
	"viracocha/internal/grid.Block.VelocityGradient":    "per-node gradient oracle the grid, vortex and dataset suites pin the row kernel VelocityGradientRow against",
	"viracocha/internal/mathx.Mat3.Trace":               "used by the eigen-solver property test",
	"viracocha/internal/mathx.Mat3.MulVec":              "Solve3's tests build their right-hand sides with it",
	"viracocha/internal/mathx.AlmostEqual":              "float comparison shared by the grid, iso, mesh, vortex and dataset suites",
	"viracocha/internal/faults.Mix64":                   "seeded mixer the churn soak draws its timelines from",
	"viracocha/internal/storage.DecompressBlock":        "reference inverse: proves the compression ablation's CompressBlock lossless",
	"viracocha/internal/grid.Block.MinJacobianDet":      "invariant checker the dataset suite calls on every generated block",
	"viracocha/internal/faults.Mutate":                  "fault probe the comm fuzzers and the wal suite corrupt frames with",
	"viracocha/internal/comm.ReadFrame":                 "Conn.Recv's frame reader over a plain io.Reader: the frame round-trip and hostile-prefix tests drive it",
	"viracocha/internal/grid.Block.Vel":                 "read side of SetVel; the dataset suite checks generated velocity fields through it",
	"viracocha/internal/grid.BSPTree.ActiveLeafCells":   "BSP probe: the pruning tests count surviving cells through it",
	"viracocha/internal/loader.Selector.Decide":         "selector probe: the loader suite reads the fitness ranking through it",
	"viracocha/internal/loader.Selector.Reliability":    "selector probe: the loader suite reads the reliability estimate through it",
	"viracocha/internal/iso.ProgressiveExtract":         "single-block driver the progressive suite runs ProgressiveBlock through",
}

// anyInterfaces names the standard-library interfaces the standard library
// calls through `any` or through an interface the code never spells: a
// method of one of these names is reached like an interface method.
var anyInterfaces = map[string][]string{
	"error":                    {"Error"},
	"fmt.Stringer":             {"String"},
	"flag.Value":               {"String", "Set"},
	"sort.Interface":           {"Len", "Less", "Swap"},
	"container/heap.Interface": {"Len", "Less", "Swap", "Push", "Pop"},
	"encoding/json.Marshaler":  {"MarshalJSON"},
	"errors.Is/As unwrap":      {"Unwrap"},
}

func TestCallers(t *testing.T) {
	rep, err := census(filepath.Join("..", ".."), exempt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d funcs and methods, %d exempt with a reason each; %d registered commands",
		rep.funcs, len(exempt), rep.commands)
	for _, f := range rep.unreached {
		t.Errorf("no entry point reaches %s", f)
	}
	for _, s := range rep.stale {
		t.Errorf("stale exemption %s", s)
	}
	for _, c := range rep.unsent {
		t.Errorf("registered command %q: no non-test Go outside internal/commands sends it", c)
	}
}

func TestCensusFixtures(t *testing.T) {
	for _, tc := range []struct {
		name          string
		files         map[string]string
		exempt        map[string]string
		wantUnreached []string
		wantStale     []string
	}{{
		name: "a dead func is reported though a struct field shares its name",
		files: map[string]string{
			"main.go": `package main
import "fx/m"
type sample struct{ Lambda2 float64 }
func main() { s := sample{}; s.Lambda2 = 1; println(s.Lambda2, m.Live()) }`,
			"m/m.go": `package m
func Live() int { return 1 }
func Lambda2() float64 { return 0 }`,
		},
		wantUnreached: []string{"fx/m.Lambda2"},
	}, {
		name: "a method reached only through an interface call is kept",
		files: map[string]string{
			"main.go": `package main
type shape interface{ Area() float64 }
type square struct{ side float64 }
func (s square) Area() float64 { return s.side * s.side }
func (s square) Perimeter() float64 { return 4 * s.side }
func main() { var s shape = square{2}; println(s.Area()) }`,
		},
		wantUnreached: []string{"fx.square.Perimeter"},
	}, {
		name: "a marker method used only in a type assertion is kept",
		files: map[string]string{
			"main.go": `package main
type field struct{}
func (*field) DerivedEntity() {}
func derived(e any) bool { _, ok := e.(interface{ DerivedEntity() }); return ok }
func main() { println(derived(&field{})) }`,
		},
	}, {
		name: "an exemption of a reached or missing func is stale",
		files: map[string]string{
			"main.go": `package main
func used() {}
func probe() {}
func main() { used() }`,
		},
		exempt: map[string]string{
			"fx.used":  "reached from main",
			"fx.gone":  "names nothing",
			"fx.probe": "a probe only tests call",
		},
		wantStale: []string{"fx.gone", "fx.used"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{"go.mod": "module fx\n\ngo 1.22\n"}
			for name, src := range tc.files {
				files[name] = src
			}
			for name, src := range files {
				path := filepath.Join(dir, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := census(dir, tc.exempt)
			if err != nil {
				t.Fatal(err)
			}
			var unreached, stale []string
			for _, f := range rep.unreached {
				unreached = append(unreached, f.name)
			}
			for _, s := range rep.stale {
				stale = append(stale, s.name)
			}
			if fmt.Sprint(unreached) != fmt.Sprint(tc.wantUnreached) {
				t.Errorf("unreached = %v, want %v", unreached, tc.wantUnreached)
			}
			if fmt.Sprint(stale) != fmt.Sprint(tc.wantStale) {
				t.Errorf("stale = %v, want %v", stale, tc.wantStale)
			}
		})
	}
}

// finding is one func the census reports, with where it is defined or why.
type finding struct{ name, where string }

func (f finding) String() string { return f.name + " (" + f.where + ")" }

type report struct {
	funcs, commands  int
	unreached, stale []finding
	unsent           []string
}

// pkg is one type-checked package of a module under the census root.
type pkg struct {
	path   string
	nested bool // in a module nested under the root: walked, never reported
	files  []*ast.File
	types  *types.Package
	info   *types.Info
}

// census type-checks every package under root and reports the funcs of the
// root module no entry point reaches, the stale entries of exempt, and the
// registered commands nothing sends.
func census(root string, exempt map[string]string) (*report, error) {
	fset := token.NewFileSet()
	pkgs, err := load(fset, root)
	if err != nil {
		return nil, err
	}

	// Every declared func with a body, by its qualified name.
	type decl struct {
		name string
		pkg  *pkg
		fn   *ast.FuncDecl
	}
	decls := map[*types.Func]*decl{}
	byName := map[string]*types.Func{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "_" {
					continue
				}
				obj, _ := p.info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				name := qualified(p.path, obj)
				decls[obj] = &decl{name, p, fd}
				byName[name] = obj
			}
		}
	}

	// The call graph: edges[f] holds every declared func a body of f uses.
	edges := map[*types.Func][]*types.Func{}
	uses := func(p *pkg, n ast.Node) (out []*types.Func) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := p.info.Uses[id].(*types.Func); ok {
					if _, ok := decls[fn.Origin()]; ok {
						out = append(out, fn.Origin())
					}
				}
			}
			return true
		})
		return out
	}
	for fn, d := range decls {
		edges[fn] = uses(d.pkg, d.fn.Body)
	}

	// Entry points: main, init, package-level var initialisers, and every
	// method an interface may call.
	called := interfaceMethods(pkgs)
	var roots []*types.Func
	for fn, d := range decls {
		recv := d.fn.Recv != nil
		switch {
		case !recv && d.fn.Name.Name == "init",
			!recv && d.fn.Name.Name == "main" && d.pkg.types.Name() == "main",
			recv && called[methodKey(fn)]:
			roots = append(roots, fn)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					roots = append(roots, uses(p, gd)...)
				}
			}
		}
	}

	reach := func(extra []*types.Func) map[*types.Func]bool {
		seen := map[*types.Func]bool{}
		stack := append(append([]*types.Func(nil), roots...), extra...)
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[fn] {
				continue
			}
			seen[fn] = true
			stack = append(stack, edges[fn]...)
		}
		return seen
	}

	rep := &report{}
	var exempted []*types.Func
	for name, reason := range exempt {
		if fn, ok := byName[name]; ok {
			exempted = append(exempted, fn)
		} else {
			rep.stale = append(rep.stale, finding{name, "names no func: " + reason})
		}
	}
	// An exemption is stale when the entry points and the other exemptions
	// reach its func without it.
	for i, fn := range exempted {
		others := append(append([]*types.Func(nil), exempted[:i]...), exempted[i+1:]...)
		if reach(others)[fn] {
			rep.stale = append(rep.stale, finding{decls[fn].name, "reached without it: " + exempt[decls[fn].name]})
		}
	}
	reached := reach(exempted)
	for fn, d := range decls {
		if d.pkg.nested {
			continue
		}
		rep.funcs++
		if !reached[fn] {
			pos := fset.Position(d.fn.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			rep.unreached = append(rep.unreached, finding{d.name, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)})
		}
	}
	byFindingName := func(fs []finding) {
		sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
	}
	byFindingName(rep.unreached)
	byFindingName(rep.stale)

	rep.unsent, rep.commands = unsentCommands(pkgs)
	return rep, nil
}

// qualified renders a func as importpath.Name or importpath.Recv.Name.
func qualified(path string, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return path + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return path + "." + n.Obj().Name() + "." + fn.Name()
	}
	return path + ".?." + fn.Name()
}

// methodKey keys a method name as interfaces match it: an unexported name
// only matches within its own package.
func methodKey(fn *types.Func) string {
	if fn.Exported() || fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// interfaceMethods collects the keys of every method of every interface type
// that appears in the type of an expression or a declared object, plus those
// of anyInterfaces.
func interfaceMethods(pkgs []*pkg) map[string]bool {
	called := map[string]bool{}
	for _, names := range anyInterfaces {
		for _, n := range names {
			called[n] = true
		}
	}
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			// A named non-interface type is a leaf: its fields are visited
			// where the code that declares them is checked.
			if it, ok := t.Underlying().(*types.Interface); ok {
				visit(it)
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				called[methodKey(t.Method(i))] = true
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				visit(t.Field(i).Type())
			}
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			visit(tv.Type)
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				visit(obj.Type())
			}
		}
	}
	return called
}

// unsentCommands lists the names Name() methods in internal/commands return
// that no string literal in non-test Go outside internal/commands spells.
func unsentCommands(pkgs []*pkg) (unsent []string, registered int) {
	var names []string
	literals := map[string]bool{}
	for _, p := range pkgs {
		isCommands := strings.HasSuffix(p.path, "/internal/commands")
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if isCommands && n.Recv != nil && n.Name.Name == "Name" && n.Body != nil && len(n.Body.List) == 1 {
						if ret, ok := n.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
							if lit, ok := ret.Results[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
								s, _ := strconv.Unquote(lit.Value)
								names = append(names, s)
							}
						}
					}
				case *ast.BasicLit:
					if !isCommands && n.Kind == token.STRING {
						s, _ := strconv.Unquote(n.Value)
						literals[s] = true
					}
				}
				return true
			})
		}
	}
	for _, n := range names {
		if !literals[n] {
			unsent = append(unsent, n)
		}
	}
	sort.Strings(unsent)
	return unsent, len(names)
}

// load parses the non-test Go files of every package under root (a directory
// holding a go.mod starts a nested module) and type-checks them, resolving
// imports of those packages among themselves and every other import from the
// compiler's export data.
func load(fset *token.FileSet, root string) ([]*pkg, error) {
	byPath := map[string]*pkg{}
	var order []*pkg
	mods := map[string]string{} // module directory → module path
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		if gomod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if mods[dir] = modulePath(gomod); mods[dir] == "" {
				return fmt.Errorf("%s/go.mod: no module line", dir)
			}
		}
		mod := dir // the innermost module holding dir
		for mods[mod] == "" {
			if mod == root {
				return fmt.Errorf("%s: not inside a module", dir)
			}
			mod = filepath.Dir(mod)
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		if len(bp.GoFiles) == 0 { // test files only, like this package
			return nil
		}
		rel, _ := filepath.Rel(mod, dir)
		p := &pkg{path: mods[mod], nested: mod != root}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		byPath[p.path] = p
		order = append(order, p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "gc", nil)
	var imp importerFunc
	check := func(p *pkg) error {
		if p.types != nil {
			return nil
		}
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, p.info)
		p.types = tp
		return err
	}
	imp = func(path string) (*types.Package, error) {
		p, ok := byPath[path]
		if !ok {
			return std.Import(path)
		}
		if err := check(p); err != nil {
			return nil, err
		}
		return p.types, nil
	}
	for _, p := range order {
		if err := check(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}
