package insituviz

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
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

// TestEveryInternalPackageHasAProductionImporter keeps internal/ free of
// packages only their own tests reach: each directory under internal/ must
// be imported by at least one non-test file outside itself (root, cmd/,
// internal/ or bench/). leakcheck is test support by design.
func TestEveryInternalPackageHasAProductionImporter(t *testing.T) {
	imported := map[string]bool{"insituviz/internal/leakcheck": true}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, .bench_build (a Go build cache)
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		self := "insituviz/" + filepath.ToSlash(filepath.Dir(path))
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p != self {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if p := "insituviz/internal/" + d.Name(); d.IsDir() && !imported[p] {
			t.Errorf("%s is imported by no non-test file outside itself: give it a caller or delete it", p)
		}
	}
}

// funcCallerExemptions are the exported internal/ funcs and methods, keyed
// "package.Name", that may lack a non-test caller. Each value is the
// reason: an observer of state tests and operators read; a fixture or
// comparator the tests build on; a safety valve; test support that
// tests of more than one package share (root bench_test.go experiments
// print several); or a method an interface calls by its name.
var funcCallerExemptions = map[string]string{
	"catalyst.BytesCopied":         "observer",
	"catalyst.Invocations":         "observer",
	"cinemacluster.NodeState":      "observer",
	"cinemaserve.BreakerState":     "observer",
	"cinemaserve.CacheLen":         "observer",
	"cinemaserve.QuarantinedFiles": "observer",
	"eddy.ActiveTracks":            "observer",
	"lustre.BusyTime":              "observer",
	"partition.Imbalance":          "observer",
	"partition.Owner":              "observer",
	"pio.AggregatorOf":             "observer",
	"pio.GlobalLen":                "observer",
	"pio.Range":                    "observer",
	"provenance.Head":              "observer",
	"render.CellForPixel":          "observer",
	"lustre.WimpyStorage":          "fixture",
	"pipeline.Improvement":         "comparator",
	"render.PSNR":                  "comparator",
	"core.CompareCampaigns":        "test-support",
	"core.DefaultCostAssumptions":  "test-support",
	"core.SweepSampling":           "test-support",
	"core.TrappedCapacity":         "test-support",
	"leakcheck.Check":              "test-support",
	"lustre.SetRetry":              "test-support",
	"ocean.OkuboWeiss":             "test-support",
	"render.EncodePNG":             "test-support",
	"render.ResizeNearest":         "test-support",
	"report.Sparkline":             "test-support",
	"cinemaserve.Unwrap":           "interface", // errors.Is/As
	"lustre.Unwrap":                "interface",
	"telemetry.MarshalJSON":        "interface", // encoding/json
	"telemetry.UnmarshalJSON":      "interface",
}

// TestEveryExportedFuncHasANonTestCaller keeps production code reachable:
// every exported func and method declared in a non-test file under
// internal/ must be named, outside its own declaration, by some non-test
// file of the module (root, cmd/, internal/ or bench/). The match is by
// name, so it misses a dead method that shares a live name; it catches
// the common case, a feature or oracle only tests reach, which belongs in
// a _test.go file or nowhere. An exemption whose func gains a caller must
// be dropped, so the list stays exactly the code only tests reach.
func TestEveryExportedFuncHasANonTestCaller(t *testing.T) {
	type decl struct {
		key, name, pos string
		self           int // uses of its own name inside its body
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return fs.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			self := 0
			if fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == fd.Name.Name {
						self++
					}
					return true
				})
			}
			key := filepath.Base(filepath.Dir(path)) + "." + fd.Name.Name
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String(), self})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported funcs found under internal/")
	}
	exempt := map[string]bool{}
	for _, d := range decls {
		_, listed := funcCallerExemptions[d.key]
		exempt[d.key] = exempt[d.key] || listed
		switch called := uses[d.name]-d.self > 0; {
		case listed && called:
			t.Errorf("%s: %s has a non-test caller: drop it from funcCallerExemptions", d.pos, d.key)
		case !listed && !called:
			t.Errorf("%s: %s has no non-test caller: move it into a _test.go file, delete it, or list it in funcCallerExemptions with a reason", d.pos, d.key)
		}
	}
	for key, reason := range funcCallerExemptions {
		switch {
		case !exempt[key]:
			t.Errorf("funcCallerExemptions[%q]: no such exported func under internal/", key)
		case !strings.Contains(" observer fixture comparator safety test-support interface ", " "+reason+" "):
			t.Errorf("funcCallerExemptions[%q] = %q: not a known reason", key, reason)
		}
	}
}
