package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "run_wall_s", Unit: "s", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "req_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.7, 1.3, 1.0, 0.8, 1.2}
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", tight, tight, wall, verdictOK},
		{"5% worse is inside a 10% bound", tight, []float64{1.05, 1.06, 1.04, 1.05, 1.05}, wall, verdictOK},
		{"20% worse", tight, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, wall, verdictWorse},
		{"20% better", tight, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, wall, verdictOK},
		{"noisy base, runs interleave", noisy, []float64{0.9, 1.4, 1.1, 0.75, 1.25}, wall, verdictUnresolved},
		{"noisy base, every new run better", noisy, []float64{0.5, 0.6, 0.55, 0.5, 0.6}, wall, verdictOK},
		{"noisy base, every new run worse", noisy, []float64{2.0, 2.1, 2.2, 2.0, 2.1}, wall, verdictWorse},
		{"higher is better: 20% lower rate", []float64{100, 101, 99, 100, 100}, []float64{80, 81, 79, 80, 80}, rate, verdictWorse},
		{"higher is better: 20% higher rate", []float64{100, 101, 99, 100, 100}, []float64{120, 121, 119, 120, 120}, rate, verdictOK},
	} {
		if _, got := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func writeResultFile(t *testing.T, dir, name string, env envStamp, seed int64, walls []float64) string {
	t.Helper()
	f := resultFile{Env: env, Seed: seed, Seconds: 10}
	for _, w := range walls {
		f.Runs = append(f.Runs, runRecord{Workload: "live_sim", result: result{Correct: true, Attempted: 1,
			Metrics: map[string]value{"run_wall_s": {Value: w, Unit: "s"}}}})
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesToMixEnvironments(t *testing.T) {
	dir := t.TempDir()
	env := envStamp{NumCPU: 2, CPUModel: "Xeon"}
	base := writeResultFile(t, dir, "a.json", env, 1, []float64{1, 1.01, 0.99})
	for name, other := range map[string]string{
		"cpu count": writeResultFile(t, dir, "b1.json", envStamp{NumCPU: 4, CPUModel: "Xeon"}, 1, []float64{1}),
		"cpu model": writeResultFile(t, dir, "b2.json", envStamp{NumCPU: 2, CPUModel: "EPYC"}, 1, []float64{1}),
		"seed":      writeResultFile(t, dir, "b3.json", env, 2, []float64{1}),
	} {
		if _, err := compareFiles(new(bytes.Buffer), base, other); err == nil || !strings.Contains(err.Error(), "not comparable") {
			t.Errorf("different %s: got error %v, want a refusal", name, err)
		}
	}
}

func TestCompareReportsRows(t *testing.T) {
	dir := t.TempDir()
	env := envStamp{NumCPU: 2, CPUModel: "Xeon"}
	a := writeResultFile(t, dir, "a.json", env, 1, []float64{1.00, 1.01, 0.99, 1.00, 1.02})
	same := writeResultFile(t, dir, "b.json", env, 1, []float64{1.01, 1.00, 1.00, 0.99, 1.01})
	slow := writeResultFile(t, dir, "c.json", env, 1, []float64{1.30, 1.31, 1.29, 1.30, 1.32})
	var out bytes.Buffer
	ok, err := compareFiles(&out, a, same)
	if err != nil || !ok {
		t.Fatalf("same-code files: ok %v, err %v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "live_sim") || !strings.Contains(out.String(), "run_wall_s") {
		t.Errorf("no row for live_sim run_wall_s:\n%s", out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, a, slow)
	if err != nil || ok {
		t.Fatalf("30%% slower file: ok %v, err %v", ok, err)
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no %q verdict:\n%s", verdictWorse, out.String())
	}
}
