// Command bench is the repository's benchmark: it builds the real
// binaries, runs seven named workloads against them as child processes,
// checks their outputs, and reports end-to-end metrics (tracing off) or
// per-layer metrics and a budget table (a separate traced run whose probes
// time calls into each layer's public functions from outside).
//
//	bash bench/run.sh --workload live_viz --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                       # every workload, untraced then traced
//	bash bench/run.sh -runs 10 -out a.json  # a result file for -compare
//	bash bench/run.sh -compare a.json b.json
//
// See README.md for the metric catalogue and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is one run inside a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	result
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env     envStamp    `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// bench holds what every run of one invocation shares.
type bench struct {
	root    string // checkout root
	bin     string // built binaries under test
	buildS  float64
	procs   *procSet
	workTop string // parent of every run's scratch directory
	size    sizing
}

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", defaultRunSeconds, "how long one run measures")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics, budget table, bench/out/<workload>.trace.json")
	runs := flag.Int("runs", 1, "with no -workload: untraced runs per workload (interleaved), for -compare quartiles")
	out := flag.String("out", "", "write a result file for -compare here")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json from the catalogue and exit")
	flag.Parse()

	switch {
	case *printManifest:
		data, _ := json.MarshalIndent(benchManifest(), "", "  ")
		fmt.Println(string(data))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || *runs < 1 {
		fatalf("need positive -seconds and -runs")
	}
	if *workload != "" && liveWorkloads[*workload] == nil && serveWorkloads[*workload] == nil {
		fatalf("unknown workload %q", *workload)
	}

	b, err := newBench(".") // run.sh starts the bench in the checkout root
	if err != nil {
		fatalf("%v", err)
	}
	// Children die with the bench on every exit path: a normal return goes
	// through cleanup, signals through the handler, and a panic through
	// the deferred recover.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.cleanup()
		os.Exit(130)
	}()
	defer func() {
		if r := recover(); r != nil {
			b.cleanup()
			panic(r)
		}
	}()
	code := b.execute(*workload, *seed, *seconds, *traceFlag == 1, *runs, *out)
	b.cleanup()
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// benchBinaries are the programs under test.
var benchBinaries = []string{"liverun", "vizworker", "cinemaserve", "cinemaverify"}

// newBench builds the programs under test from the checkout's source. The
// build lands in .bench_build so later runs in the same checkout only pay
// the toolchain's up-to-date check.
func newBench(root string) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, f := range []string{"go.mod", "cmd/liverun/main.go", "bench/go.mod"} {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			return nil, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
		}
	}
	b := &bench{
		root:    root,
		bin:     filepath.Join(root, ".bench_build", "bin"),
		workTop: filepath.Join(root, ".bench_build", "work"),
		procs:   newProcSet(),
		size:    fullSize,
	}
	if err := os.MkdirAll(b.bin, 0o755); err != nil {
		return nil, err
	}
	args := []string{"build", "-o", b.bin + string(filepath.Separator)}
	for _, name := range benchBinaries {
		args = append(args, "./cmd/"+name)
	}
	t0 := time.Now()
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w: %s", err, outp)
	}
	b.buildS = time.Since(t0).Seconds()
	return b, nil
}

func (b *bench) binary(name string) string { return filepath.Join(b.bin, name) }

// cleanup kills every child and removes this process's scratch space.
func (b *bench) cleanup() {
	b.procs.killAll()
	_ = os.RemoveAll(b.workDir())
}

func (b *bench) workDir() string { return filepath.Join(b.workTop, fmt.Sprint(os.Getpid())) }

// execute runs what the flags asked for and returns the exit code: 0 only
// when every run was correct.
func (b *bench) execute(workload string, seed int64, seconds float64, traced bool, runs int, out string) int {
	file := resultFile{Env: stampEnv(b.root), Seed: seed, Seconds: seconds}
	ok := true
	one := func(name string, traced bool) result {
		res := b.runWorkload(name, seed, seconds, traced)
		file.Runs = append(file.Runs, runRecord{Workload: name, Trace: traced, result: res})
		ok = ok && res.Correct
		return res
	}
	if workload != "" {
		res := one(workload, traced)
		ok = b.writeResults(out, file) && ok
		// The driver reads the last line of standard output.
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	} else {
		t0 := time.Now()
		for i := 0; i < runs; i++ {
			for _, w := range workloadDefs {
				one(w.Name, false)
			}
		}
		for _, w := range workloadDefs {
			one(w.Name, true)
		}
		if out == "" {
			out = filepath.Join(b.root, "bench", "out", "result.json")
		}
		ok = b.writeResults(out, file) && ok
		fmt.Printf("suite finished in %.0f s, results in %s\n", time.Since(t0).Seconds(), out)
	}
	if !ok {
		return 1
	}
	return 0
}

func (b *bench) writeResults(path string, file resultFile) bool {
	if path == "" {
		return true
	}
	data, _ := json.MarshalIndent(file, "", " ")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
		if err == nil {
			return true
		}
		fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", path, err)
	}
	return false
}

// run is the state of one run of one workload.
type run struct {
	b        *bench
	name     string
	seed     int64
	seconds  float64
	dir      string    // this run's scratch directory
	rec      *recorder // nil when untraced
	values   map[string]float64
	attempts int
	failures int
	broken   bool // an output was wrong, whatever the failure count says
}

// fail records failed operations and says why on standard error.
func (r *run) fail(n int, format string, args ...any) {
	r.failures += n
	r.broken = true
	r.warn(format, args...)
}

// warn reports something a reader should know that is not a wrong output:
// a workload that no longer stresses what it claims, a budget that does
// not add up.
func (r *run) warn(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: %s: "+format+"\n", append([]any{r.name}, args...)...)
}

// runWorkload performs one run and prints its metrics by name and unit.
func (b *bench) runWorkload(name string, seed int64, seconds float64, traced bool) result {
	r := &run{b: b, name: name, seed: seed, seconds: seconds, values: map[string]float64{}}
	r.dir = filepath.Join(b.workDir(), name)
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
		r.rec = newRecorder(name)
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		r.fail(1, "scratch dir: %v", err)
	} else if lw := liveWorkloads[name]; lw != nil {
		r.runLive(lw)
	} else {
		r.runServe(serveWorkloads[name])
	}
	// Pay for the deletes' deferred work (journal commit, discard) here,
	// not during the next run's measurements.
	_ = os.RemoveAll(r.dir)
	syscall.Sync()
	if left := b.procs.survivors(); len(left) > 0 {
		r.fail(1, "children survived the run: process groups %v", left)
		b.procs.killAll()
	}
	if r.attempts == 0 {
		r.attempts = 1
	}
	if r.failures > r.attempts {
		r.failures = r.attempts
	}
	if traced {
		r.values["bench.build_s"] = b.buildS
		r.values["fail_ratio"] = float64(r.failures) / float64(r.attempts)
		if err := r.rec.writeChrome(filepath.Join(b.root, "bench", "out", name+".trace.json")); err != nil {
			r.fail(0, "trace file: %v", err)
		}
	}

	res := result{
		Correct:   !r.broken && r.failures == 0,
		Attempted: r.attempts,
		Failed:    r.failures,
		Metrics:   map[string]value{},
	}
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s seed %d, %.0f s, %s: %d attempted, %d failed\n", name, seed, seconds, mode, res.Attempted, res.Failed)
	for _, d := range defs {
		v := r.values[d.Name]
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		if v != 0 || !traced {
			fmt.Printf("  %-32s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	// A value the catalogue does not know would silently vanish: refuse.
	for k := range r.values {
		if !catalogued(k) {
			panic("bench: metric " + k + " is missing from the catalogue")
		}
	}
	return res
}

func catalogued(name string) bool {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}
