package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"insituviz/internal/cinemastore"
	"insituviz/internal/telemetry"
)

// liveWorkload is the shape of one liverun command. The sizes keep the
// ISSUE's proportions (which layer dominates) at about a second per
// execution, so a ten-second run holds around ten executions and its
// median is steady.
type liveWorkload struct {
	mode          string
	subdiv, steps int
	sampleEvery   int
	width, height int
	ranks, ortho  int
	cores         bool
	transitWkr    int // >0: -transport tcp to this many vizworker processes

	// What the traced run adds for this workload.
	checkCoverage bool // the probes cover every layer it runs: hold budget.coverage to its band
	guards        bool // also time one -trace -model execution and probe the livemodel/core guards
}

var liveWorkloads = map[string]*liveWorkload{
	"live_sim":    {mode: "insitu", subdiv: 5, steps: 150, sampleEvery: 75, width: 128, height: 64, ranks: 4, checkCoverage: true},
	"live_viz":    {mode: "insitu", subdiv: 3, steps: 48, sampleEvery: 1, width: 384, height: 192, ranks: 4, ortho: 4, cores: true, checkCoverage: true, guards: true},
	"live_post":   {mode: "post", subdiv: 5, steps: 60, sampleEvery: 1, width: 96, height: 48, ranks: 8},
	"transit_tcp": {mode: "insitu", subdiv: 3, steps: 48, sampleEvery: 1, width: 384, height: 192, ranks: 4, ortho: 4, cores: true, transitWkr: 2},
}

// sizing is every count a run's cost scales with. fullSize is the
// benchmark; smokeSize is the ~1/20 version the smoke test runs so that
// every path executes in seconds.
type sizing struct {
	setupRounds    int // set-ups per run whose median is setup_s
	minExecutions  int // measured executions, however short the run
	baselineRounds int // no-sampling executions behind live.sample_overhead_ms
	stepsDiv       int // divides a live workload's steps and sampling period

	storeFrames  int // frames in the synthetic store
	warmupZipf   int // Zipf requests after the one pass over the key set
	closedWindow int // requests per closed-loop window
	pacedWindow  int // requests per open-loop window
	minWindows   int // windows per phase, however short the run

	probeBox time.Duration // wall-time cap on one probe's timed calls
}

var (
	fullSize = sizing{
		setupRounds: 3, minExecutions: 3, baselineRounds: 3, stepsDiv: 1,
		storeFrames: 1024, warmupZipf: 2000, closedWindow: 2000, minWindows: 3,
		pacedWindow: 2000, // 20 samples beyond p99
		probeBox:    120 * time.Millisecond,
	}
	smokeSize = sizing{
		setupRounds: 1, minExecutions: 1, baselineRounds: 1, stepsDiv: 10,
		storeFrames: 64, warmupZipf: 100, closedWindow: 100, minWindows: 1,
		pacedWindow: 100, probeBox: 5 * time.Millisecond,
	}
)

// sized returns the workload at the run's size.
func (lw *liveWorkload) sized(sz sizing) *liveWorkload {
	c := *lw
	c.steps /= sz.stepsDiv
	if c.sampleEvery /= sz.stepsDiv; c.sampleEvery < 1 {
		c.sampleEvery = 1
	}
	return &c
}

func (lw *liveWorkload) samples() int { return lw.steps / lw.sampleEvery }

func (lw *liveWorkload) framesPerSample() int {
	n := 1 + lw.ortho
	if lw.cores {
		n++
	}
	return n
}

// args renders the command line; steps and sampleEvery are parameters so
// the set-up and no-sampling variants share everything else.
func (lw *liveWorkload) args(out string, steps, sampleEvery int, workers []string) []string {
	a := []string{
		"-mode", lw.mode, "-out", out,
		"-subdivisions", strconv.Itoa(lw.subdiv),
		"-steps", strconv.Itoa(steps), "-sample-every", strconv.Itoa(sampleEvery),
		"-width", strconv.Itoa(lw.width), "-height", strconv.Itoa(lw.height),
		"-render-ranks", strconv.Itoa(lw.ranks),
	}
	if lw.ortho > 0 {
		a = append(a, "-ortho-views", strconv.Itoa(lw.ortho))
	}
	if lw.cores {
		a = append(a, "-eddy-cores")
	}
	if len(workers) > 0 {
		a = append(a, "-transport", "tcp", "-transit-codec", "flate", "-viz-workers", strings.Join(workers, ","))
	}
	return a
}

// liveExec is what one execution cost and produced.
type liveExec struct {
	out       string
	wallS     float64 // liverun, exec to exit
	totalS    float64 // including vizworker start
	cpuS      float64 // liverun plus vizworkers
	rssMB     float64 // summed over the processes
	telemetry *telemetry.Snapshot
	err       error
}

// execLive runs the workload's command once into a fresh directory named
// label, starting (and stopping) its vizworkers when it has any. Outputs
// stay on disk until the run ends: deleting a store between executions
// sends the filesystem (journal commits, discards) into a slower regime
// for the executions that follow, which showed as a 7% run-to-run spread
// on live_viz against 2% without the deletes.
func (r *run) execLive(lw *liveWorkload, label string, steps, sampleEvery int, extra ...string) (e liveExec) {
	e.out = filepath.Join(r.dir, label)
	r.attempts++
	t0 := time.Now()
	var workers []*child
	var addrs []string
	defer func() {
		for _, w := range workers {
			u := w.stop()
			e.cpuS += u.cpuS
			e.rssMB += u.rssMB
		}
	}()
	for i := 0; i < lw.transitWkr; i++ {
		w, err := r.b.procs.startServer(workerAnnounce, r.b.binary("vizworker"),
			"-listen", "127.0.0.1:0", "-out", filepath.Join(e.out, "cinema"))
		if err != nil {
			e.err = err
			return e
		}
		workers = append(workers, w)
		addrs = append(addrs, w.addr)
	}
	telemetryFile := ""
	if r.rec != nil {
		telemetryFile = e.out + ".telemetry.json"
		extra = append(extra, "-telemetry", telemetryFile)
	}
	u, _, err := r.b.procs.run(r.b.binary("liverun"), append(lw.args(e.out, steps, sampleEvery, addrs), extra...)...)
	e.wallS, e.cpuS, e.rssMB, e.err = u.wall.Seconds(), u.cpuS, u.rssMB, err
	e.totalS = time.Since(t0).Seconds()
	if err == nil && telemetryFile != "" {
		e.telemetry = new(telemetry.Snapshot)
		data, err := os.ReadFile(telemetryFile)
		if err == nil {
			err = json.Unmarshal(data, e.telemetry)
		}
		e.err = err
	}
	return e
}

// storeFacts is what the correctness checks compare across executions.
type storeFacts struct {
	frames int
	bytes  int64 // every file the execution committed: frames, index, manifest, raw dumps
}

// checkStore verifies one execution's output: cinemaverify must pass and
// the store must hold every frame the command's shape implies.
func (r *run) checkStore(lw *liveWorkload, e liveExec, steps, sampleEvery int) (storeFacts, bool) {
	var f storeFacts
	if e.err != nil {
		r.fail(1, "%v", e.err)
		return f, false
	}
	cinema := filepath.Join(e.out, "cinema")
	if _, _, err := r.b.procs.run(r.b.binary("cinemaverify"), cinema); err != nil {
		r.fail(1, "%v", err)
		return f, false
	}
	st, err := cinemastore.Open(cinema)
	if err != nil {
		r.fail(1, "open %s: %v", cinema, err)
		return f, false
	}
	f.frames = st.Len()
	if want := steps / sampleEvery * lw.framesPerSample(); f.frames != want {
		r.fail(1, "%s holds %d frames, want %d", cinema, f.frames, want)
		return f, false
	}
	err = filepath.WalkDir(e.out, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			var info fs.FileInfo
			if info, err = d.Info(); err == nil {
				f.bytes += info.Size()
			}
		}
		return err
	})
	if err != nil {
		r.fail(1, "walk %s: %v", e.out, err)
		return f, false
	}
	return f, true
}

func (r *run) runLive(lw *liveWorkload) {
	sz := r.b.size
	lw = lw.sized(sz)
	// Set-up is everything an execution pays before its first step can
	// advance — process start, mesh, operators, partition, rasterizers,
	// store creation, and vizworker start for the tcp transport — taken
	// as a one-step execution.
	var setups []float64
	for i := 0; i < sz.setupRounds; i++ {
		e := r.execLive(lw, fmt.Sprintf("setup%d", i), 1, 1)
		if _, ok := r.checkStore(lw, e, 1, 1); ok {
			setups = append(setups, e.totalS)
		}
	}
	r.values["setup_s"] = median(setups)

	measureFor := r.seconds
	if r.rec != nil {
		measureFor /= 2 // the traced run spends the other half in probes
	}
	deadline := time.Now().Add(time.Duration(measureFor * float64(time.Second)))
	var walls, cpus []float64
	var first storeFacts
	var firstOut string
	var last liveExec
	peak := 0.0
	for n := 0; n < sz.minExecutions || time.Now().Before(deadline); n++ {
		span := r.rec.begin("exec")
		e := r.execLive(lw, fmt.Sprintf("exec%d", n), lw.steps, lw.sampleEvery)
		span.end()
		facts, ok := r.checkStore(lw, e, lw.steps, lw.sampleEvery)
		if !ok {
			continue
		}
		if firstOut == "" {
			first, firstOut = facts, e.out
		} else if facts != first {
			// The run is deterministic: every execution must commit the
			// same frames and the same bytes.
			r.fail(1, "execution %d committed %d frames / %d bytes, the first %d / %d",
				n, facts.frames, facts.bytes, first.frames, first.bytes)
			continue
		}
		walls, cpus, last = append(walls, e.wallS), append(cpus, e.cpuS), e
		if e.rssMB > peak {
			peak = e.rssMB
		}
	}
	wall := median(walls)
	r.values["run_wall_s"] = wall
	r.values["cpu_s"] = median(cpus)
	r.values["peak_rss_mb"] = peak
	r.values["live.stored_bytes"] = float64(first.bytes)

	if lw.transitWkr > 0 && firstOut != "" {
		// Transport transparency (DESIGN.md): the same command without the
		// tcp transport must commit a byte-identical database.
		ref := *lw
		ref.transitWkr = 0
		e := r.execLive(&ref, "inproc", lw.steps, lw.sampleEvery)
		if _, ok := r.checkStore(&ref, e, lw.steps, lw.sampleEvery); ok {
			if diff := diffTrees(filepath.Join(e.out, "cinema"), filepath.Join(firstOut, "cinema")); diff != "" {
				r.fail(1, "tcp store differs from the inproc store: %s", diff)
			}
		}
	}
	if r.rec == nil || len(walls) == 0 {
		return
	}

	// Traced run only from here: the no-sampling baseline, the program's
	// own counters, the probes and the budget.
	if lw.samples() >= 8 {
		var base []float64
		for i := 0; i < sz.baselineRounds; i++ {
			e := r.execLive(lw, fmt.Sprintf("base%d", i), lw.steps, lw.steps)
			if _, ok := r.checkStore(lw, e, lw.steps, lw.steps); ok {
				base = append(base, e.wallS)
			}
		}
		if len(base) > 0 {
			r.values["live.sample_overhead_ms"] = (wall - median(base)) / float64(lw.samples()-1) * 1e3
		}
	}
	c := last.telemetry.Counters
	r.values["ocean.steps"] = float64(c["ocean.steps"])
	r.values["render.frames"] = float64(c["render.frames"])
	r.values["catalyst.bytes_copied"] = float64(c["catalyst.copied.bytes"])
	r.values["intransit.bytes_wire"] = float64(c["transit.bytes.wire"])
	r.values["intransit.reconnects"] = float64(c["transit.reconnects"])
	if lw.transitWkr > 0 {
		r.values["intransit.wire_ratio"] = last.telemetry.FloatGauges["transit.compression.ratio"]
		// In transit the frames are rendered by the workers; the sim's own
		// render.frames counter stays 0, so count what it adopted.
		r.values["render.frames"] = float64(first.frames)
	}
	if lw.guards {
		// One execution with the program's own observability on, to show
		// what tracing costs relative to the untraced median.
		e := r.execLive(lw, "traced", lw.steps, lw.sampleEvery,
			"-trace", filepath.Join(r.dir, "liverun.trace.json"), "-model")
		if _, ok := r.checkStore(lw, e, lw.steps, lw.sampleEvery); ok {
			r.values["trace.overhead_ratio"] = e.wallS / wall
		}
	}
	r.probeLive(lw, filepath.Join(firstOut, "cinema"))
	r.liveBudget(lw, wall, c)
}

// diffTrees reports the first difference between two directory trees, or
// "" when they hold the same files with the same bytes (diff -r).
func diffTrees(a, b string) string {
	read := func(root string) (map[string][]byte, error) {
		files := map[string][]byte{}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files[rel], err = os.ReadFile(path)
			return err
		})
		return files, err
	}
	fa, err := read(a)
	if err != nil {
		return err.Error()
	}
	fb, err := read(b)
	if err != nil {
		return err.Error()
	}
	if len(fa) == 0 {
		return a + " is empty"
	}
	for rel, data := range fa {
		other, ok := fb[rel]
		if !ok {
			return rel + " only in " + a
		}
		if !bytes.Equal(data, other) {
			return rel + " differs"
		}
	}
	for rel := range fb {
		if _, ok := fa[rel]; !ok {
			return rel + " only in " + b
		}
	}
	return ""
}
