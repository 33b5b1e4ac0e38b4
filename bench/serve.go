package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"insituviz/internal/cinemastore"
)

// serveWorkload is one serving topology over the synthetic store.
type serveWorkload struct {
	cacheBytes   int64 // the server the clients talk to
	nodes        int   // >0: that server is a gateway over this many nodes
	nodeCache    int64
	replicas     int
	wantHitRatio [2]float64 // what the workload claims to stress, checked in the traced run
}

var serveWorkloads = map[string]*serveWorkload{
	"serve_hot":     {cacheBytes: 128 << 20, wantHitRatio: [2]float64{0.99, 1}},
	"serve_churn":   {cacheBytes: 8 << 20, wantHitRatio: [2]float64{0.6, 0.8}},
	"cluster_churn": {cacheBytes: 4 << 20, nodes: 3, nodeCache: 8 << 20, replicas: 2},
}

const (
	storeName     = "run"
	frameBytes    = 64 << 10
	sequenceLen   = 1 << 17 // longer than any run sends; wraps if not
	unitRequests  = 10000   // the serving "unit of work" run_wall_s and cpu_s are scaled to
	pacedRate     = 2000.0  // requests per second, about a quarter of closed-loop capacity
	tracedClosedF = 0.2     // share of --seconds a traced run spends closed-loop,
	tracedPacedF  = 0.3     // and open-loop; probes take the rest
)

// buildStore writes the synthetic v3 store with the real writer: seeded
// random frames, so nothing about them compresses or repeats.
func buildStore(dir string, seed int64, frames int) error {
	w, err := cinemastore.Create(dir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, frameBytes)
	for i := 0; i < frames; i++ {
		rng.Read(buf)
		if _, err := w.Put(cinemastore.Key{Time: float64(i), Variable: "v"}, buf); err != nil {
			return err
		}
	}
	_, err = w.Commit()
	return err
}

// fleet is the started topology: front is what clients talk to.
type fleet struct {
	front *child
	all   []*child
}

func (f *fleet) stop() (cpuS, rssMB float64) {
	// Ask every process first: each takes 50 ms to drain before it exits,
	// and the waits need not add up.
	for _, c := range f.all {
		c.interrupt()
	}
	for _, c := range f.all {
		u := c.stop()
		cpuS += u.cpuS
		rssMB += u.rssMB
	}
	return cpuS, rssMB
}

func (r *run) startFleet(sw *serveWorkload, storeDir string) (*fleet, error) {
	f := &fleet{}
	serve := r.b.binary("cinemaserve")
	if sw.nodes == 0 {
		c, err := r.b.procs.startServer(serveAnnounce, serve, "-http", "127.0.0.1:0",
			"-db", storeName+"="+storeDir, "-cache-bytes", strconv.FormatInt(sw.cacheBytes, 10))
		if err != nil {
			return f, err
		}
		f.front, f.all = c, []*child{c}
		return f, nil
	}
	var peers []string
	var nodes []*child
	for i := 0; i < sw.nodes; i++ {
		c, err := r.b.procs.startServer(serveAnnounce, serve, "-http", "127.0.0.1:0",
			"-db", storeName+"="+storeDir, "-cache-bytes", strconv.FormatInt(sw.nodeCache, 10))
		if err != nil {
			f.all = nodes
			return f, err
		}
		nodes = append(nodes, c)
		peers = append(peers, "http://"+c.addr)
	}
	gw, err := r.b.procs.startServer(serveAnnounce, serve, "-http", "127.0.0.1:0", "-cluster",
		"-peers", strings.Join(peers, ","), "-replicas", strconv.Itoa(sw.replicas),
		"-cache-bytes", strconv.FormatInt(sw.cacheBytes, 10))
	if err != nil {
		f.all = nodes
		return f, err
	}
	f.front, f.all = gw, append([]*child{gw}, nodes...)
	return f, nil
}

// loadClients is how many client goroutines (and connections) generate
// load: never more than the machine has processors.
func loadClients() int { return min(runtime.NumCPU(), 2) }

func (r *run) runServe(sw *serveWorkload) {
	sz := r.b.size
	var storeDir string
	seq := zipfSequence(r.seed, sz.storeFrames, sequenceLen)

	// Set-up: build the store, start the processes, warm the caches (one
	// pass over the key set, then a stretch of the Zipf sequence). Done
	// setupRounds times for a median; the last round's fleet is measured.
	var setups []float64
	var fl *fleet
	var gen *loadgen
	for round := 0; round < sz.setupRounds; round++ {
		if fl != nil {
			gen.close()
			fl.stop()
			fl = nil
		}
		t0 := time.Now()
		// A fresh directory per round; see execLive for why nothing is
		// deleted before the run ends.
		storeDir = filepath.Join(r.dir, fmt.Sprintf("store%d", round))
		if err := buildStore(storeDir, r.seed, sz.storeFrames); err != nil {
			r.fail(1, "build store: %v", err)
			return
		}
		st, err := cinemastore.Open(storeDir)
		if err != nil {
			r.fail(1, "open store: %v", err)
			return
		}
		fl, err = r.startFleet(sw, storeDir)
		if err != nil {
			r.attempts++
			r.fail(1, "start: %v", err)
			fl.stop()
			return
		}
		gen = newLoadgen(fl.front.addr, storeName, st.Entries(), seq, loadClients())
		gen.sweep()
		gen.closed(sz.warmupZipf)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.values["setup_s"] = median(setups)
	defer func() {
		if fl != nil {
			gen.close()
			fl.stop()
		}
	}()
	before, err := scrape(gen.client, fl.front.addr)
	if err != nil {
		r.fail(1, "%v", err)
		return
	}

	closedFor, pacedFor := r.seconds, 0.0
	if r.rec != nil {
		closedFor, pacedFor = r.seconds*tracedClosedF, r.seconds*tracedPacedF
	}
	var unitWalls []float64
	deadline := time.Now().Add(time.Duration(closedFor * float64(time.Second)))
	for n := 0; n < sz.minWindows || time.Now().Before(deadline); n++ {
		span := r.rec.begin("closed")
		wall := gen.closed(sz.closedWindow)
		span.end()
		unitWalls = append(unitWalls, wall.Seconds()/float64(sz.closedWindow)*unitRequests)
	}
	r.values["run_wall_s"] = median(unitWalls)

	var p50s, p99s, lates []float64
	if pacedFor > 0 {
		deadline = time.Now().Add(time.Duration(pacedFor * float64(time.Second)))
		for n := 0; n < sz.minWindows || time.Now().Before(deadline); n++ {
			span := r.rec.begin("paced")
			res := gen.paced(pacedRate, sz.pacedWindow)
			span.end()
			p50, p99 := windowPercentiles(res.latency)
			_, late := windowPercentiles(res.late)
			p50s, p99s, lates = append(p50s, p50), append(p99s, p99), append(lates, late)
		}
	}

	after, err := scrape(gen.client, fl.front.addr)
	if err != nil {
		r.fail(1, "%v", err)
		return
	}
	gen.close()
	cpuS, rssMB := fl.stop()
	fl = nil

	sent, failed := gen.sent.Load(), gen.failed.Load()
	r.attempts += int(sent)
	if failed > 0 {
		r.fail(int(failed), "%d of %d requests failed; first: %v", failed, sent, gen.firstFailure.Load())
	}
	r.values["cpu_s"] = cpuS / float64(sent) * unitRequests
	r.values["peak_rss_mb"] = rssMB
	if r.rec == nil {
		return
	}

	r.values["serve.req_per_s"] = unitRequests / median(unitWalls)
	r.values["serve.p50_us"] = median(p50s) * 1e6
	r.values["serve.p99_us"] = median(p99s) * 1e6
	r.values["loadgen.late_p99_us"] = median(lates) * 1e6
	r.values["serve.cpu_us_per_req"] = cpuS / float64(sent) * 1e6
	delta := func(name string) float64 { return sumSuffix(after, name) - sumSuffix(before, name) }
	hits, misses := delta("serve.cache.hits"), delta("serve.cache.misses")
	if hits+misses > 0 {
		r.values["cinemaserve.hit_ratio"] = hits / (hits + misses)
	}
	r.values["cinemaserve.store_reads"] = delta("serve.store.reads")
	r.values["cinemaserve.evictions"] = delta("serve.cache.evictions")
	r.values["cinemaserve.shed"] = delta("serve.shed")
	r.values["cinemaserve.self_p99_us"] = maxSuffix(after, "serve.latency.ns.p99") / 1e3
	if sw.nodes > 0 {
		gh, gm := delta("cluster.cache.hits"), delta("cluster.cache.misses")
		if gh+gm > 0 {
			r.values["cinemacluster.hit_ratio"] = gh / (gh + gm)
		}
		for i := 0; i < sw.nodes; i++ {
			r.values["cinemacluster.node_requests"] += delta(fmt.Sprintf("cluster.node.node%d.requests", i))
		}
		r.values["cinemacluster.failover"] = delta("cluster.failover")
	}
	if ratio := r.values["cinemaserve.hit_ratio"]; sz == fullSize && sw.wantHitRatio[1] > 0 &&
		(ratio < sw.wantHitRatio[0] || ratio > sw.wantHitRatio[1]) {
		r.warn("cache hit ratio %.3f is outside the %.2f-%.2f this workload exists to produce",
			ratio, sw.wantHitRatio[0], sw.wantHitRatio[1])
	}
	r.probeServe(sw, storeDir)
}
