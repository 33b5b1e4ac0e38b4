package insituviz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestCIRunsTheSmokeScripts line-scans .github/workflows/ci.yml (no YAML
// parser: GitHub validates the syntax) for the few facts that tie it to
// scripts/, syntax-checks every script, and — unless -short — executes
// lib.sh's negative cases and the socket-free trace scenario, so the
// build / work-dir / cleanup path every scenario shares is run by tier-1.
func TestCIRunsTheSmokeScripts(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(src), "\njobs:\n")
	jobs := regexp.MustCompile(`(?m)^  [\w-]+:\n`).Split(body, -1)[1:]
	item := regexp.MustCompile(`(?m)^ {10}- (\w+)$`)
	runs := map[string]int{} // script path → jobs (matrix legs) running it
	for _, job := range jobs {
		if !strings.Contains(job, "\n    timeout-minutes: ") {
			t.Errorf("a job has no timeout-minutes:\n%s", job)
		}
		for _, step := range strings.Split(job, "\n      - ") {
			if strings.Contains(step, "actions/upload-artifact") && !strings.Contains(step, "if: always()") {
				t.Errorf("upload step without `if: always()`:\n%s", step)
			}
		}
		for _, m := range regexp.MustCompile(`(?m)run: (scripts/.*\.sh)$`).FindAllStringSubmatch(job, -1) {
			legs := [][]string{{"", ""}}
			if strings.Contains(m[1], "${{ matrix.scenario }}") {
				_, list, _ := strings.Cut(job, "        scenario:\n")
				legs = item.FindAllStringSubmatch(list, -1)
			}
			for _, leg := range legs {
				script := strings.ReplaceAll(m[1], "${{ matrix.scenario }}", leg[1])
				runs[script]++
				if fi, err := os.Stat(script); err != nil || fi.Mode()&0o111 == 0 {
					t.Errorf("ci.yml runs %s, which is not an executable file", script)
				}
			}
		}
	}
	if tier1 := jobs[0]; !strings.Contains(tier1, "run: scripts/tier1.sh") ||
		!strings.Contains(tier1, "- stable\n") || !strings.Contains(tier1, "- oldstable\n") {
		t.Errorf("tier1 must run scripts/tier1.sh on stable and oldstable:\n%s", tier1)
	}
	all, _ := os.ReadFile("scripts/smoke/all.sh")
	scripts, _ := filepath.Glob("scripts/*/*.sh")
	scripts = append(scripts, "scripts/tier1.sh")
	for _, s := range scripts {
		if out, err := exec.Command("bash", "-n", s).CombinedOutput(); err != nil {
			t.Errorf("bash -n %s: %v\n%s", s, err, out)
		}
		switch name := strings.TrimSuffix(filepath.Base(s), ".sh"); name {
		case "lib", "all", "selftest", "tier1": // sourced; the local loop; run below; checked above
		default:
			if runs[s] != 1 {
				t.Errorf("%s is run by %d CI jobs, want exactly 1", s, runs[s])
			}
			if !strings.Contains(string(all), " "+name) {
				t.Errorf("scripts/smoke/all.sh does not run %s", name)
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, s := range []string{"scripts/smoke/selftest.sh", "scripts/smoke/trace.sh"} {
		if out, err := exec.Command(s).CombinedOutput(); err != nil {
			t.Errorf("%s: %v\n%s", s, err, out)
		}
	}
}

// listedPackage is what the guards read of one package of the root or
// bench/ module, as `go list -json` reports it: non-test files only.
type listedPackage struct {
	ImportPath, Dir string
	GoFiles         []string
	Imports         []string
}

var (
	listOnce  sync.Once
	listed    []*listedPackage // both modules, each package after its module imports
	listErr   error
	typesOnce sync.Once
	typed     *typedLoad
	typesErr  error
)

// modulePackages lists the packages of the root and bench/ modules once
// per test binary, in dependency order.
func modulePackages(t *testing.T) []*listedPackage {
	t.Helper()
	listOnce.Do(func() {
		byPath := map[string]*listedPackage{}
		var all []*listedPackage
		for _, dir := range []string{".", "bench"} {
			cmd := exec.Command("go", "list", "-json", "./...")
			cmd.Dir = dir
			out, err := cmd.Output()
			if err != nil {
				listErr = fmt.Errorf("go list in %s: %v", dir, err)
				return
			}
			for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
				p := new(listedPackage)
				if listErr = dec.Decode(p); listErr != nil {
					return
				}
				byPath[p.ImportPath] = p
				all = append(all, p)
			}
		}
		done := map[string]bool{}
		var visit func(p *listedPackage)
		visit = func(p *listedPackage) {
			if done[p.ImportPath] {
				return
			}
			done[p.ImportPath] = true
			for _, imp := range p.Imports {
				if q := byPath[imp]; q != nil {
					visit(q)
				}
			}
			listed = append(listed, p)
		}
		for _, p := range all {
			visit(p)
		}
	})
	if listErr != nil {
		t.Fatal(listErr)
	}
	return listed
}

// TestEveryInternalPackageHasAProductionImporter keeps internal/ free of
// packages only their own tests reach: each package under internal/ must
// be imported by at least one non-test file outside itself (root, cmd/,
// internal/ or bench/). leakcheck is test support by design.
func TestEveryInternalPackageHasAProductionImporter(t *testing.T) {
	imported := map[string]bool{"insituviz/internal/leakcheck": true}
	pkgs := modulePackages(t)
	for _, p := range pkgs {
		for _, imp := range p.Imports {
			imported[imp] = true
		}
	}
	for _, p := range pkgs {
		if strings.HasPrefix(p.ImportPath, "insituviz/internal/") && !imported[p.ImportPath] {
			t.Errorf("%s is imported by no non-test file outside itself: give it a caller or delete it", p.ImportPath)
		}
	}
}

// typedLoad is both modules' non-test files, type-checked together, and
// the interfaces a method may be called through.
type typedLoad struct {
	fset   *token.FileSet
	files  []*ast.File
	info   *types.Info
	ifaces []*types.Interface
}

// typeCheckModules parses and type-checks every listed package once per
// test binary, in dependency order, importing the standard library from
// source.
func typeCheckModules(t *testing.T) *typedLoad {
	t.Helper()
	pkgs := modulePackages(t)
	typesOnce.Do(func() {
		l := &typedLoad{fset: token.NewFileSet(), info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		std := importer.ForCompiler(l.fset, "source", nil)
		byPath := map[string]*types.Package{}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if p := byPath[path]; p != nil {
				return p, nil
			}
			return std.Import(path)
		})}
		var checked []*types.Package
		for _, p := range pkgs {
			files, err := parseFiles(l.fset, p.Dir, p.GoFiles)
			if err != nil {
				typesErr = err
				return
			}
			tp, err := conf.Check(p.ImportPath, l.fset, files, l.info)
			if err != nil {
				typesErr = fmt.Errorf("type-check %s: %v", p.ImportPath, err)
				return
			}
			byPath[p.ImportPath] = tp
			checked = append(checked, tp)
			l.files = append(l.files, files...)
		}
		l.ifaces = declaredInterfaces(checked)
		// The standard library also calls methods through interface
		// literals in function bodies, which the source importer skips:
		// errors.Is and errors.As reach Unwrap through
		// interface{ Unwrap() error } and interface{ Unwrap() []error }.
		// Evaluate the literals of every standard package the modules
		// import directly in that package's scope.
		for _, tp := range checked {
			for _, imp := range tp.Imports() {
				if byPath[imp.Path()] != nil || imp.Path() == "unsafe" {
					continue
				}
				byPath[imp.Path()] = imp // once per package
				bp, err := build.Import(imp.Path(), "", 0)
				if err != nil {
					typesErr = err
					return
				}
				files, err := parseFiles(l.fset, bp.Dir, bp.GoFiles)
				if err != nil {
					typesErr = err
					return
				}
				l.ifaces = append(l.ifaces, interfaceLiterals(l.fset, imp, files)...)
			}
		}
		typed = l
	})
	if typesErr != nil {
		t.Fatal(typesErr)
	}
	return typed
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declaredInterfaces returns error and every method-set interface that
// pkgs, or the packages they import transitively, declare at package level.
func declaredInterfaces(pkgs []*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// interfaceLiterals evaluates the interface literals of files in pkg's
// scope; a literal that names something scoped more narrowly is skipped.
func interfaceLiterals(fset *token.FileSet, pkg *types.Package, files []*ast.File) []*types.Interface {
	var out []*types.Interface
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.InterfaceType)
			if !ok || lit.Methods.NumFields() == 0 {
				return true
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			if types.CheckExpr(fset, pkg, token.NoPos, lit, info) == nil {
				if it, ok := info.Types[lit].Type.(*types.Interface); ok && it.IsMethodSet() {
					out = append(out, it)
				}
			}
			return false
		})
	}
	return out
}

// funcKey names a func "package.Name" and a method "package.Type.Name".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := receiverNamed(fn); recv != nil {
		key += recv.Obj().Name() + "."
	}
	return key + fn.Name()
}

// receiverNamed returns a method's receiver type, without the pointer;
// nil for a func.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// reachability maps every exported func and method that audit selects,
// among those the files declare, to whether it is reached: used by some
// file outside its own body, or a method that implements one of ifaces.
// A use is an identifier that Info.Uses resolves to the func (for x.f,
// the func the selection picks), compared as declarations (Origin), so a
// use of an instantiated generic counts for its generic declaration. A call through
// an interface resolves to the interface's method, never to the concrete
// one, hence the ifaces rule.
func reachability(files []*ast.File, info *types.Info, ifaces []*types.Interface, audit func(*types.Func) bool) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	body := map[*types.Func]*ast.BlockStmt{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn := info.Defs[fd.Name].(*types.Func); fd.Name.IsExported() && audit(fn) {
					reached[fn], body[fn] = false, fd.Body
				}
			}
		}
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if b, audited := body[fn]; audited && (b == nil || id.Pos() < b.Pos() || id.Pos() >= b.End()) {
			reached[fn] = true
		}
	}
	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	for fn, ok := range reached {
		if !ok && implements(fn, byMethod[fn.Name()]) {
			reached[fn] = true
		}
	}
	return reached
}

// implements reports whether fn is a method of a non-generic type that,
// or whose pointer, implements one of ifaces.
func implements(fn *types.Func, ifaces []*types.Interface) bool {
	n := receiverNamed(fn)
	if n == nil || n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
			return true
		}
	}
	return false
}

// funcCallerExemptions are the exported internal/ funcs and methods, keyed
// as funcKey names them, that may lack a non-test use. Each value is the
// reason: an observer of state that tests read; a fixture or comparator
// the tests build on; a safety valve; or test support that tests of more
// than one package share (root bench_test.go experiments print several).
var funcCallerExemptions = map[string]string{
	"catalyst.Adaptor.BytesCopied":          "observer",
	"catalyst.Adaptor.Invocations":          "observer",
	"cinemacluster.Gateway.NodeState":       "observer",
	"cinemaserve.Server.BreakerState":       "observer",
	"cinemaserve.Server.CacheLen":           "observer",
	"cinemaserve.Server.QuarantinedFiles":   "observer",
	"eddy.Tracker.ActiveTracks":             "observer",
	"lustre.Cluster.BusyTime":               "observer",
	"partition.Partition.Imbalance":         "observer",
	"partition.Partition.Owner":             "observer",
	"pio.Plan.AggregatorOf":                 "observer",
	"pio.Decomposition.GlobalLen":           "observer",
	"pio.Decomposition.Range":               "observer",
	"provenance.Ledger.Head":                "observer",
	"render.Rasterizer.CellForPixel":        "observer",
	"lustre.WimpyStorage":                   "fixture",
	"pipeline.Improvement":                  "comparator",
	"power.Trace.Energy":                    "comparator",
	"render.PSNR":                           "comparator",
	"render.Rasterizer.Render":              "comparator",
	"core.CostAssumptions.CompareCampaigns": "test-support",
	"core.DefaultCostAssumptions":           "test-support",
	"core.SweepSampling":                    "test-support",
	"core.TrappedCapacity":                  "test-support",
	"leakcheck.Check":                       "test-support",
	"power.Profile.Values":                  "test-support",
	"ocean.Model.OkuboWeiss":                "test-support",
	"render.EncodePNG":                      "test-support",
	"render.ResizeNearest":                  "test-support",
	"report.Sparkline":                      "test-support",
	"trace.Attribution.Phase":               "test-support",
}

// TestEveryExportedFuncHasANonTestCaller keeps production code reachable:
// every exported func and method declared in a non-test file under
// internal/ must be used, outside its own body, by some non-test file of
// the root or bench/ module, or implement a method of an interface that
// the checked packages declare or import. Uses are resolved by go/types,
// so a dead method that shares a live name is caught. An exemption whose
// func gains a use must be dropped, so the list stays exactly the code
// only tests reach.
func TestEveryExportedFuncHasANonTestCaller(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checks the standard library; the plain pass runs it")
	}
	l := typeCheckModules(t)
	internal := func(fn *types.Func) bool { return strings.HasPrefix(fn.Pkg().Path(), "insituviz/internal/") }
	funcs := map[string]*types.Func{}
	reached := map[string]bool{}
	for fn, ok := range reachability(l.files, l.info, l.ifaces, internal) {
		funcs[funcKey(fn)], reached[funcKey(fn)] = fn, ok
	}
	if len(funcs) == 0 {
		t.Fatal("no exported funcs found under internal/")
	}
	var keys []string
	for key := range funcs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, exempt := funcCallerExemptions[key]; !exempt && !reached[key] {
			t.Errorf("%s: %s has no non-test use: move it into a _test.go file, delete it, or list it in funcCallerExemptions with a reason",
				l.fset.Position(funcs[key].Pos()), key)
		}
	}
	for key, reason := range funcCallerExemptions {
		switch {
		case funcs[key] == nil:
			t.Errorf("funcCallerExemptions[%q]: no such exported func under internal/", key)
		case reached[key]:
			t.Errorf("funcCallerExemptions[%q]: it has a non-test use or implements an interface: drop it", key)
		case !strings.Contains(" observer fixture comparator safety test-support ", " "+reason+" "):
			t.Errorf("funcCallerExemptions[%q] = %q: not a known reason", key, reason)
		}
	}
}

// TestUnreachedFuncsSelfTest runs the guard's walk over a small package:
// a dead method whose name a live method shares, and which calls itself,
// is flagged; a method called only through an interface is exempt; a
// generic method used only through an instantiation counts as used.
func TestUnreachedFuncsSelfTest(t *testing.T) {
	const src = `package p

type Via interface{ Called() }

type Live struct{}

func (Live) Run()    {}
func (Live) Called() {}

type Dead struct{}

func (Dead) Run() { var d Dead; d.Run() }

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func init() {
	Live{}.Run()
	var v Via = Live{}
	v.Called()
	_ = Box[int]{}.Get()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	all := func(*types.Func) bool { return true }
	var got []string
	for fn, ok := range reachability([]*ast.File{f}, info, declaredInterfaces([]*types.Package{pkg}), all) {
		if !ok {
			got = append(got, funcKey(fn))
		}
	}
	if len(got) != 1 || got[0] != "p.Dead.Run" {
		t.Errorf("unreached = %v, want [p.Dead.Run]", got)
	}
}
