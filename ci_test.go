package insituviz

import (
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
