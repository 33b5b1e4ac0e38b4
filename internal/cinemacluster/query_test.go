package cinemacluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"insituviz/internal/cinemaserve"
	"insituviz/internal/leakcheck"
	"insituviz/internal/telemetry"
)

// assertNoStrikes checks that client-side mistakes cost the fleet
// nothing: no failover counted, no node failure, every breaker closed.
func assertNoStrikes(t *testing.T, c *cluster) {
	t.Helper()
	if got := c.reg.Counter("failover").Value(); got != 0 {
		t.Errorf("failover = %d, want 0", got)
	}
	for i := range c.nodes {
		name := fmt.Sprintf("node%d", i)
		if got := c.reg.Counter("node." + name + ".failures").Value(); got != 0 {
			t.Errorf("%s failures = %d, want 0", name, got)
		}
		if got := c.gw.NodeState(name); got != cinemaserve.BreakerClosed {
			t.Errorf("%s breaker state = %d, want closed", name, got)
		}
	}
}

// TestGatewayKeysCacheByParsedRequest: every spelling of one axis point
// is one gateway cache entry and one miss; exact and nearest requests for
// the same point stay distinct entries.
func TestGatewayKeysCacheByParsedRequest(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{})
	var want []byte
	for i, q := range []string{
		"var=var0&time=1&phi=0.5&theta=0.25",
		"var=var0&time=1.0&phi=0.5&theta=0.25",
		"theta=2.5e-1&phi=.5&time=1e0&var=var0",
		"var=var0&time=1&phi=0.5&theta=0.25&nearest=0",
	} {
		w, body := c.get(t, "/cinema/run/frame?"+q)
		if w.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", q, w.Code, body)
		}
		if i == 0 {
			want = body
		} else if !bytes.Equal(body, want) {
			t.Fatalf("%q served different bytes than the first spelling", q)
		}
	}
	if misses, hits := c.reg.Counter("cache.misses").Value(), c.reg.Counter("cache.hits").Value(); misses != 1 || hits != 3 {
		t.Errorf("four spellings of one point: %d misses, %d hits; want 1, 3", misses, hits)
	}
	if got := c.gw.cache.Len(); got != 1 {
		t.Errorf("gateway cache holds %d entries, want 1", got)
	}

	w, body := c.get(t, "/cinema/run/frame?var=var0&time=1&phi=0.5&theta=0.25&nearest=1")
	if w.Code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("nearest on a stored point: status %d, same bytes %v", w.Code, bytes.Equal(body, want))
	}
	if misses, entries := c.reg.Counter("cache.misses").Value(), c.gw.cache.Len(); misses != 2 || entries != 2 {
		t.Errorf("nearest vs exact: %d misses, %d entries; want 2, 2 (distinct keys)", misses, entries)
	}
}

// TestGatewayRejectsMalformedNearest: the gateway answers a malformed
// nearest with the node's own 400 before any peer is contacted. At the
// parent commit it forwarded the query, every candidate answered 400,
// each counted as a breaker strike, and the client got a 502.
func TestGatewayRejectsMalformedNearest(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{})
	w, _ := c.get(t, "/cinema/run/frame?var=var0&time=1&nearest=maybe")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	assertNoStrikes(t, c)
	for i := range c.nodes {
		if got := c.reg.Counter(fmt.Sprintf("node.node%d.requests", i)).Value(); got != 0 {
			t.Errorf("node%d was contacted %d times for a request the gateway can reject itself", i, got)
		}
	}
}

// TestGatewayClientCacheOnly: a client's own cacheonly=1 is answered from
// the memory tiers alone — 204 when the frame is resident nowhere, 200
// once it is — and never reaches the full-read walk, where the nodes'
// 204 used to count as a failure of every candidate and end in 502.
func TestGatewayClientCacheOnly(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{})
	e := c.nodes[0].st.Entries()[0]

	w, body := c.get(t, frameQuery(e)+"&cacheonly=1")
	if w.Code != http.StatusNoContent || len(body) != 0 {
		t.Fatalf("cold cacheonly: status %d with %d bytes, want 204 and none", w.Code, len(body))
	}
	for _, nd := range c.nodes {
		if got := nd.reg.Counter("store.reads").Value(); got != 0 {
			t.Errorf("a cacheonly request cost a node %d disk reads", got)
		}
	}

	if w, _ := c.get(t, frameQuery(e)); w.Code != http.StatusOK {
		t.Fatalf("warming fetch: status %d", w.Code)
	}
	want, err := c.nodes[0].st.ReadFrame(e)
	if err != nil {
		t.Fatal(err)
	}
	// Resident in the gateway tier, and — with that tier emptied — in the
	// owner's memory.
	for _, tier := range []string{"gateway", "peer"} {
		w, body = c.get(t, frameQuery(e)+"&cacheonly=1")
		if w.Code != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("warm cacheonly from %s memory: status %d, right bytes %v", tier, w.Code, bytes.Equal(body, want))
		}
		c.gw.cache = cinemaserve.NewCache(-1, frameID.hash, nil, nil)
	}
	if got := c.reg.Counter("peer.hits").Value(); got != 1 {
		t.Errorf("peer.hits = %d, want 1", got)
	}
	if got := c.reg.Counter("errors").Value(); got != 0 {
		t.Errorf("cluster errors = %d, want 0", got)
	}
	assertNoStrikes(t, c)
}

// TestGatewayFailsOversizePeerBody: a peer body beyond the relay bound,
// or shorter than its declared length, fails the fetch; no prefix of it is
// served or cached, and the node takes one strike. A declared length over
// the bound fails before any of the body is read.
func TestGatewayFailsOversizePeerBody(t *testing.T) {
	defer leakcheck.Check(t)()
	const bound = 1 << 10
	for _, tc := range []struct {
		name string
		body func(w http.ResponseWriter)
	}{
		// Small enough for the server to declare its length itself.
		{"declared over the bound", func(w http.ResponseWriter) {
			_, _ = w.Write(make([]byte, bound+1))
		}},
		// Flushed before the body, so sent chunked with no length.
		{"chunked over the bound", func(w http.ResponseWriter) {
			w.(http.Flusher).Flush()
			for i := 0; i < 4; i++ {
				_, _ = w.Write(make([]byte, bound/2))
			}
		}},
		{"shorter than declared", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(bound/2))
			_, _ = w.Write(make([]byte, bound/4))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Query().Get("cacheonly") != "" {
					w.WriteHeader(http.StatusNoContent)
					return
				}
				w.Header().Set("X-Cinema-File", "fat.png")
				tc.body(w)
			}))
			defer peer.Close()
			reg := telemetry.NewRegistry()
			gw, err := NewGateway(Config{Peers: []string{peer.URL}, Replicas: 1, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			gw.maxBody = bound

			w := httptest.NewRecorder()
			gw.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/run/frame?var=var0&time=0", nil))
			if w.Code != http.StatusBadGateway || strings.Contains(w.Body.String(), "\x00") {
				t.Errorf("status = %d with %d body bytes, want 502 and no frame bytes", w.Code, w.Body.Len())
			}
			if n := gw.cache.Len(); n != 0 {
				t.Errorf("gateway cached %d truncated frames", n)
			}
			if got := reg.Counter("node.node0.failures").Value(); got != 1 {
				t.Errorf("node0 failures = %d, want 1", got)
			}
		})
	}
}

// TestNodeAndGatewayRejectAlike is the differential the shared parser
// buys: over a table of malformed requests a node and a gateway in front
// of it answer with the same status, and the fleet takes no strike.
func TestNodeAndGatewayRejectAlike(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newCluster(t, 3, Config{})
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/cinema/run/frame", http.StatusBadRequest},
		{"/cinema/run/frame?time=1", http.StatusBadRequest},
		{"/cinema/run/frame?var=var0&time=soon", http.StatusBadRequest},
		{"/cinema/run/frame?var=var0&phi=0x", http.StatusBadRequest},
		{"/cinema/run/frame?var=var0&time=NaN", http.StatusBadRequest},
		{"/cinema/run/frame?var=var0&theta=-Inf", http.StatusBadRequest},
		{"/cinema/run/frame?var=var0&time=1&nearest=maybe", http.StatusBadRequest},
		{"/cinema/run/frame?var=var0&time=1&nearest=maybe&cacheonly=1", http.StatusBadRequest},
		{"/cinema/run/file/", http.StatusBadRequest},
		{"/cinema/run/file/?cacheonly=1", http.StatusBadRequest},
		{"/cinema/run/frame?var=var0&time=1&phi=0.5&theta=0.25&cacheonly=maybe", http.StatusOK},
		{"/cinema/run/frame?var=nope&time=1", http.StatusNotFound},
		{"/cinema/run/file/nope.png", http.StatusNotFound},
	} {
		resp, err := http.Get(c.nodes[0].http.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		w, _ := c.get(t, tc.path)
		if resp.StatusCode != tc.want || w.Code != tc.want {
			t.Errorf("%s: node %d, gateway %d, want %d from both", tc.path, resp.StatusCode, w.Code, tc.want)
		}
	}
	assertNoStrikes(t, c)
}

// TestGatewayCacheHitAllocations: a gateway memory-tier lookup — hashing
// the parsed request for the admission sketch, map lookup, promotion —
// allocates nothing, as the node's hit path does.
func TestGatewayCacheHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := newCluster(t, 1, Config{Replicas: 1})
	e := c.nodes[0].st.Entries()[0]
	if w, _ := c.get(t, frameQuery(e)); w.Code != http.StatusOK {
		t.Fatalf("warming fetch: status %d", w.Code)
	}
	id := frameID{store: "run", q: cinemaserve.FrameQuery{Key: e.Key}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.gw.cache.Get(id); !ok {
			t.Fatal("warmed frame not resident in the gateway cache")
		}
	})
	if allocs != 0 {
		t.Errorf("gateway cache hit allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkGatewayMemoryHit is a repeat request answered from the
// gateway's own memory tier: parse, key, cache lookup, write.
func BenchmarkGatewayMemoryHit(b *testing.B) {
	c := newCluster(b, 1, Config{Replicas: 1})
	h := c.gw.Handler()
	path := strings.TrimPrefix(frameQuery(c.nodes[0].st.Entries()[0]), "/cinema")
	fetch := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	fetch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
	}
}
