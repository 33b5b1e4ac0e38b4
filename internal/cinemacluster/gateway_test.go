package cinemacluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"insituviz/internal/cinemaserve"
	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/leakcheck"
	"insituviz/internal/telemetry"
)

// buildStoreDir writes a small database to a temp dir: vars variables x
// steps times x 2 cameras, each frame filled with a content byte derived
// from its axes so responses are distinguishable.
func buildStoreDir(t testing.TB, vars, steps, frameBytes int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := cinemastore.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	cams := []cinemastore.Key{{Phi: 0.5, Theta: 0.25}, {Phi: -0.5, Theta: 0.25}}
	for v := 0; v < vars; v++ {
		for ts := 0; ts < steps; ts++ {
			for c, cam := range cams {
				key := cinemastore.Key{
					Time: float64(ts), Phi: cam.Phi, Theta: cam.Theta,
					Variable: fmt.Sprintf("var%d", v),
				}
				data := bytes.Repeat([]byte{byte(1 + v*steps*2 + ts*2 + c)}, frameBytes)
				if _, err := w.Put(key, data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// node is one serving peer of a test cluster.
type node struct {
	srv  *cinemaserve.Server
	reg  *telemetry.Registry
	http *httptest.Server
	st   *cinemastore.Store
}

// newNode mounts dir as store "run" behind a production-shaped mux:
// /cinema/ stripped into the server handler, /metrics exposing the
// registry under the "serve." namespace, exactly like cmd/cinemaserve.
func newNode(t testing.TB, dir string, cfg cinemaserve.Config) *node {
	t.Helper()
	return startNode(t, dir, cfg, nil)
}

// startNode is newNode with connState, when non-nil, installed as the
// HTTP server's ConnState hook before it starts accepting.
func startNode(t testing.TB, dir string, cfg cinemaserve.Config, connState func(net.Conn, http.ConnState)) *node {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	st, err := cinemastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := cinemaserve.NewServer(cfg)
	if err := srv.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	union := telemetry.NewUnion().Add("serve.", cfg.Telemetry)
	mux := http.NewServeMux()
	mux.Handle("/cinema/", http.StripPrefix("/cinema", srv.Handler()))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		_ = union.Snapshot().WriteText(w)
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = connState
	ts.Start()
	return &node{srv: srv, reg: cfg.Telemetry, http: ts, st: st}
}

// cluster is a gateway over n real serving nodes sharing one store dir.
type cluster struct {
	dir   string
	nodes []*node
	gw    *Gateway
	reg   *telemetry.Registry
}

func newCluster(t testing.TB, n int, gcfg Config) *cluster {
	t.Helper()
	dir := buildStoreDir(t, 2, 4, 256)
	c := &cluster{dir: dir, reg: gcfg.Telemetry}
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
		gcfg.Telemetry = c.reg
	}
	for i := 0; i < n; i++ {
		nd := newNode(t, dir, cinemaserve.Config{})
		c.nodes = append(c.nodes, nd)
		gcfg.Peers = append(gcfg.Peers, nd.http.URL)
	}
	gw, err := NewGateway(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.gw = gw
	t.Cleanup(func() {
		gw.Close()
		for _, nd := range c.nodes {
			nd.http.Close()
		}
	})
	return c
}

// get drives one request through the gateway handler as a client would.
func (c *cluster) get(t testing.TB, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	r.URL.Path = strings.TrimPrefix(r.URL.Path, "/cinema")
	w := httptest.NewRecorder()
	c.gw.Handler().ServeHTTP(w, r)
	body, err := io.ReadAll(w.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return w, body
}

func frameQuery(e cinemastore.Entry) string {
	q := url.Values{}
	q.Set("var", e.Variable)
	q.Set("time", strconv.FormatFloat(e.Time, 'g', -1, 64))
	q.Set("phi", strconv.FormatFloat(e.Phi, 'g', -1, 64))
	q.Set("theta", strconv.FormatFloat(e.Theta, 'g', -1, 64))
	return "/cinema/run/frame?" + q.Encode()
}

func TestGatewayServesEveryFrameByteIdentical(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{})
	for _, e := range c.nodes[0].st.Entries() {
		w, body := c.get(t, frameQuery(e))
		if w.Code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", e.Key, w.Code, body)
		}
		want, err := c.nodes[0].st.ReadFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%+v: served bytes differ from the store", e.Key)
		}
		if got := w.Header().Get("X-Cinema-File"); got != e.File {
			t.Errorf("%+v: X-Cinema-File = %q, want %q", e.Key, got, e.File)
		}
	}
	if got := c.reg.Counter("errors").Value(); got != 0 {
		t.Errorf("cluster errors = %d, want 0", got)
	}
	// Every fetch landed on the key's primary owner.
	var spread []int64
	for i := range c.nodes {
		spread = append(spread, c.reg.Counter(fmt.Sprintf("node.node%d.requests", i)).Value())
	}
	for i, v := range spread {
		if v == 0 {
			t.Errorf("node%d received no requests (spread %v) — routing is not spreading", i, spread)
		}
	}
}

func TestGatewayMemoryTierServesRepeats(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{})
	e := c.nodes[0].st.Entries()[0]
	c.get(t, frameQuery(e))
	before := c.reg.Counter("cache.hits").Value()
	w, _ := c.get(t, frameQuery(e))
	if w.Code != http.StatusOK {
		t.Fatalf("repeat status %d", w.Code)
	}
	if got := c.reg.Counter("cache.hits").Value(); got != before+1 {
		t.Errorf("cache.hits = %d, want %d — repeat did not hit the gateway tier", got, before+1)
	}
}

// TestGatewayMissCostsOneRoundTrip pins the miss path: with the gateway's
// own cache disabled, each request for a frame costs its primary owner
// exactly one request and no other node any — no cacheonly probe first —
// and once the frame is in the owner's memory, that request costs no
// disk read. With the probe tier the cold miss cost three requests: a
// probe of each owner, then the read.
func TestGatewayMissCostsOneRoundTrip(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{CacheBytes: -1})
	e := c.nodes[0].st.Entries()[0]
	owner := c.gw.ring.Owners(HashKey("run", e.Key), 1, nil)[0]
	idx, _ := strconv.Atoi(strings.TrimPrefix(owner, "node"))
	want, err := c.nodes[idx].st.ReadFrame(e)
	if err != nil {
		t.Fatal(err)
	}
	requests := func() (all []int64) {
		for i := range c.nodes {
			all = append(all, c.reg.Counter(fmt.Sprintf("node.node%d.requests", i)).Value())
		}
		return all
	}

	for _, round := range []struct {
		name      string
		diskReads int64
	}{{"cold", 1}, {"resident in the owner's memory", 0}} {
		before := requests()
		reads := c.nodes[idx].reg.Counter("store.reads").Value()
		w, body := c.get(t, frameQuery(e))
		if w.Code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s: status %d, right bytes %v", round.name, w.Code, bytes.Equal(body, want))
		}
		after := requests()
		for i := range after {
			wantReq := int64(0)
			if i == idx {
				wantReq = 1
			}
			if got := after[i] - before[i]; got != wantReq {
				t.Errorf("%s: node%d took %d requests, want %d (owner %s)", round.name, i, got, wantReq, owner)
			}
		}
		if got := c.nodes[idx].reg.Counter("store.reads").Value() - reads; got != round.diskReads {
			t.Errorf("%s: the owner paid %d disk reads, want %d", round.name, got, round.diskReads)
		}
	}
	if got := c.reg.Counter("peer.probes").Value(); got != 0 {
		t.Errorf("peer.probes = %d, want 0: only a client's cacheonly request probes", got)
	}
}

// TestGatewayFailoverOnDeadNode is the kill-a-node contract in miniature:
// with one node hard-down, every frame still serves byte-identically,
// failovers are counted, and the dead node's breaker opens (ejecting it)
// while the survivors absorb the traffic.
func TestGatewayFailoverOnDeadNode(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{BreakerThreshold: 3, BreakerCooldown: time.Minute})
	entries := c.nodes[0].st.Entries()

	// Baseline pass, then kill node1 outright.
	var before [][]byte
	for _, e := range entries {
		_, body := c.get(t, frameQuery(e))
		before = append(before, body)
	}
	c.nodes[1].http.Close()
	// A fresh gateway cache so every post-kill request re-routes instead
	// of answering from gateway memory.
	c.gw.cache = cinemaserve.NewCache(-1, frameID.hash, c.reg.Counter("cache.evictions2"), c.reg.Gauge("cache.used.bytes2"))

	for i, e := range entries {
		w, body := c.get(t, frameQuery(e))
		if w.Code != http.StatusOK {
			t.Fatalf("%+v after kill: status %d — client saw the failure", e.Key, w.Code)
		}
		if !bytes.Equal(body, before[i]) {
			t.Fatalf("%+v: bytes differ before/after failover", e.Key)
		}
	}
	if got := c.reg.Counter("failover").Value(); got == 0 {
		t.Error("no failovers counted with a node down")
	}
	if got := c.gw.NodeState("node1"); got != cinemaserve.BreakerOpen {
		t.Errorf("dead node breaker state = %d, want open", got)
	}
	if skips := c.reg.Counter("eject.skips").Value(); skips == 0 {
		t.Error("open breaker never ejected the dead node from routing")
	}
	if got := c.reg.Counter("errors").Value(); got != 0 {
		t.Errorf("cluster errors = %d, want 0", got)
	}
}

// TestGatewayChaosIsDeterministic: one Zipf request sequence through a
// gateway armed with -chaos seed=7,cluster, run twice on fresh clusters,
// fires byte-identical fault logs, costs the nodes the same requests and
// leaves the same frames in gateway memory, whose budget (4 of 16 frames)
// makes every fill an admission decision. The breakers are disabled: their
// cooldown is wall-clock time.
func TestGatewayChaosIsDeterministic(t *testing.T) {
	defer leakcheck.Check(t)()
	plan, err := faults.ParseSpec("seed=7,cluster")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (log string, nodeRequests int64, resident []int) {
		inj, err := faults.New(plan)
		if err != nil {
			t.Fatal(err)
		}
		c := newCluster(t, 3, Config{Faults: inj, CacheBytes: 4 * 256, BreakerThreshold: -1})
		entries := c.nodes[0].st.Entries()
		zipf := rand.NewZipf(rand.New(rand.NewSource(5)), 1.1, 1, uint64(len(entries)-1))
		for i := 0; i < 400; i++ {
			if w, body := c.get(t, frameQuery(entries[zipf.Uint64()])); w.Code != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", i, w.Code, body)
			}
		}
		var b strings.Builder
		if err := inj.WriteLog(&b); err != nil {
			t.Fatal(err)
		}
		for i := range c.nodes {
			nodeRequests += c.reg.Counter(fmt.Sprintf("node.node%d.requests", i)).Value()
		}
		for i, e := range entries {
			if c.gw.cache.Contains(frameID{store: "run", q: cinemaserve.FrameQuery{Key: e.Key}}) {
				resident = append(resident, i)
			}
		}
		return b.String(), nodeRequests, resident
	}
	log1, req1, res1 := run()
	log2, req2, res2 := run()
	t.Logf("%d node requests, gateway holds %v", req1, res1)
	if log1 != log2 || log1 == "" {
		t.Errorf("fault logs differ or are empty:\n--- run 1\n%s--- run 2\n%s", log1, log2)
	}
	if req1 != req2 || !slices.Equal(res1, res2) {
		t.Errorf("two runs differ: node requests %d vs %d, resident %v vs %v", req1, req2, res1, res2)
	}
}

// TestGatewayInjectedPeerFaults drives the "cluster.peer" fault site:
// injected peer failures must fail over invisibly, and the injector's
// log must account for each one.
func TestGatewayInjectedPeerFaults(t *testing.T) {
	defer leakcheck.Check(t)()
	inj, err := faults.New(faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Site: "cluster.peer", Kind: faults.KindError, At: []uint64{1, 3, 5, 7}, Count: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 3, Config{Faults: inj})
	for _, e := range c.nodes[0].st.Entries() {
		w, _ := c.get(t, frameQuery(e))
		if w.Code != http.StatusOK {
			t.Fatalf("%+v: status %d under injected faults", e.Key, w.Code)
		}
	}
	if got := c.reg.Counter("faults.injected").Value(); got != 4 {
		t.Errorf("faults.injected = %d, want 4", got)
	}
	if got := c.reg.Counter("failover").Value(); got < 4 {
		t.Errorf("failover = %d, want >= 4 (one per injected fault)", got)
	}
	if got := c.reg.Counter("errors").Value(); got != 0 {
		t.Errorf("cluster errors = %d, want 0 — injection leaked to clients", got)
	}
	if inj.Fired() != 4 {
		t.Errorf("injector fired %d, want 4", inj.Fired())
	}
}

// TestGatewayRelaysShedAsBackpressure: when the whole fleet sheds, the
// gateway must relay 503 + Retry-After (backpressure), not invent a 5xx.
func TestGatewayRelaysShedAsBackpressure(t *testing.T) {
	defer leakcheck.Check(t)()
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer shed.Close()
	reg := telemetry.NewRegistry()
	gw, err := NewGateway(Config{Peers: []string{shed.URL, shed.URL}, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	r := httptest.NewRequest(http.MethodGet, "/run/frame?var=var0&time=0", nil)
	w := httptest.NewRecorder()
	gw.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := reg.Counter("errors").Value(); got != 0 {
		t.Errorf("sheds counted as errors: %d", got)
	}
}

func TestGatewayRelaysMetadataWithFailover(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{})
	w, body := c.get(t, "/cinema/run/index.json")
	if w.Code != http.StatusOK {
		t.Fatalf("index status %d", w.Code)
	}
	entries, err := cinemastore.DecodeIndex(body)
	if err != nil {
		t.Fatalf("relayed index does not decode: %v", err)
	}
	if len(entries) != c.nodes[0].st.Len() {
		t.Errorf("relayed index has %d entries, want %d", len(entries), c.nodes[0].st.Len())
	}

	// With two nodes down, the listing still answers from the survivor.
	c.nodes[0].http.Close()
	c.nodes[1].http.Close()
	for i := 0; i < 3; i++ { // every round-robin start position
		w, _ = c.get(t, "/cinema/")
		if w.Code != http.StatusOK {
			t.Fatalf("listing with 2 nodes down: status %d", w.Code)
		}
	}
}

// TestGatewayMetricsUnion pins the cluster exposition shape: gateway
// metrics under cluster.*, each node's document under node<i>.*, and a
// dead node degrading to node.<name>.up 0 without poisoning the union.
func TestGatewayMetricsUnion(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{})
	e := c.nodes[0].st.Entries()[0]
	c.get(t, frameQuery(e))
	c.nodes[2].http.Close()

	w := httptest.NewRecorder()
	c.gw.ServeMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := w.Body.String()
	for _, want := range []string{
		"counter cluster.requests 1",
		"gauge cluster.replicas 2",
		"gauge cluster.node.node0.up 1",
		"gauge cluster.node.node2.up 0",
		"counter node0.serve.requests",
		"counter node1.serve.requests",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster /metrics missing %q\n%s", want, text)
		}
	}
	if strings.Contains(text, "counter node2.") {
		t.Error("dead node contributed metric lines")
	}
}

// TestGatewayMixedLoadWithMidTestEjection is the -race stress: concurrent
// readers across the whole axis space while a node dies mid-flight. No
// request may surface an error, and the post-kill tail must fail over.
func TestGatewayMixedLoadWithMidTestEjection(t *testing.T) {
	defer leakcheck.Check(t)()
	// The gateway memory tier is disabled so every request routes to
	// peers; otherwise the whole (small) axis space can be resident
	// before the kill and the post-kill tail never fails over.
	c := newCluster(t, 3, Config{BreakerThreshold: 3, BreakerCooldown: time.Minute, CacheBytes: -1})
	entries := c.nodes[0].st.Entries()

	const workers = 8
	const perWorker = 60
	var once sync.Once
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wkr)))
			for i := 0; i < perWorker; i++ {
				if wkr == 0 && i == perWorker/3 {
					once.Do(func() { c.nodes[1].http.Close() })
				}
				e := entries[rng.Intn(len(entries))]
				r := httptest.NewRequest(http.MethodGet, frameQuery(e), nil)
				r.URL.Path = strings.TrimPrefix(r.URL.Path, "/cinema")
				w := httptest.NewRecorder()
				c.gw.Handler().ServeHTTP(w, r)
				if w.Code != http.StatusOK && w.Code != http.StatusServiceUnavailable {
					errs <- fmt.Sprintf("worker %d: status %d for %+v", wkr, w.Code, e.Key)
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if got := c.reg.Counter("failover").Value(); got == 0 {
		t.Error("mid-test kill produced no failovers")
	}
	if got := c.reg.Counter("errors").Value(); got != 0 {
		t.Errorf("cluster errors = %d, want 0", got)
	}
}
