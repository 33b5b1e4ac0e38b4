package cinemacluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"insituviz/internal/cinemaserve"
	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

// Defaults for Config zero values, and the peer fetch and scrape
// timeouts.
const (
	DefaultReplicas      = 2
	DefaultCacheBytes    = 32 << 20
	DefaultRetryAfter    = 1 * time.Second
	DefaultScrapeTimeout = 2 * time.Second
	DefaultFetchTimeout  = 30 * time.Second
)

// MetricsPrefix is the namespace the gateway's own registry appears
// under in the cluster /metrics union; node documents appear under their
// node name ("node0.", "node1.", ...).
const MetricsPrefix = "cluster."

// maxFrameBytes bounds a relayed peer response, so one corrupt node
// cannot balloon the gateway's memory.
const maxFrameBytes = 64 << 20

// Config configures a Gateway.
type Config struct {
	// Peers are the serving nodes' base URLs ("http://host:port"), in
	// fleet order. Node i is named "node<i>" in metrics and routing.
	Peers []string
	// Replicas is R: how many ring members own each frame. Zero selects
	// DefaultReplicas; values beyond the fleet size are clamped to it.
	Replicas int
	// CacheBytes is the gateway's own memory tier budget. Zero selects
	// DefaultCacheBytes; negative disables the tier.
	CacheBytes int64
	// RetryAfter is the backoff advertised when the whole replica set
	// sheds. Zero selects DefaultRetryAfter.
	RetryAfter time.Duration
	// BreakerThreshold / BreakerCooldown configure the per-node health
	// breakers, with the same semantics and defaults as cinemaserve's
	// per-store breakers. Zero selects the cinemaserve defaults;
	// a negative threshold disables ejection.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Telemetry receives the gateway's metrics (nil runs unobserved).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, receives a "cluster.gateway" lane carrying
	// instants for failovers and ejection skips.
	Tracer *trace.Tracer
	// Faults, when non-nil, arms the "cluster.peer" site: injected
	// errors fail peer fetches exactly as a dropped connection would,
	// driving failover and the breakers deterministically.
	Faults *faults.Injector
	// RepairDirs maps "node<i>/<store>" to the local directory holding
	// that node's replica of the store. When a node reports a corrupt
	// frame (500 + X-Cinema-Corrupt) and a later candidate serves good
	// bytes, the gateway rewrites the bad replica's file through the
	// store's atomic temp+fsync+rename path. Replicas without a mapping
	// are detected and failed over but not repaired.
	RepairDirs map[string]string
}

// peerNode is one serving node as the gateway sees it.
type peerNode struct {
	name string // "node<i>", the metric and ring identity
	base string // base URL
	brk  *cinemaserve.Breaker

	mRequests *telemetry.Counter
	mOK       *telemetry.Counter
	mFailures *telemetry.Counter
	mSheds    *telemetry.Counter
	gUp       *telemetry.Gauge
}

// Gateway routes Cinema requests across a fleet of cinemaserve nodes:
// consistent-hash ownership with R-way replication, breaker-driven
// ejection, and the tiered reads described in the package comment. Safe
// for concurrent use.
type Gateway struct {
	cfg    Config
	ring   *Ring
	peers  []*peerNode
	byName map[string]*peerNode
	client *http.Client
	cache  *cinemaserve.Cache[frameID]
	lane   *trace.Lane

	peerSite *faults.Site
	rr       atomic.Uint64 // round-robin cursor for hashless routes
	// maxBody bounds a relayed peer response (maxFrameBytes; tests shrink
	// it to exercise the bound without a 64 MiB body).
	maxBody int64

	mRequests    *telemetry.Counter
	mErrors      *telemetry.Counter
	mFailover    *telemetry.Counter
	mEjectSkips  *telemetry.Counter
	mPeerHits    *telemetry.Counter
	mPeerProbes  *telemetry.Counter
	mCacheHits   *telemetry.Counter
	mCacheMisses *telemetry.Counter
	mInjected    *telemetry.Counter
	mBytesOut    *telemetry.Counter
	mCorrupt     *telemetry.Counter
	mRepairs     *telemetry.Counter
	mRepairErrs  *telemetry.Counter
	mDials       *telemetry.Counter
}

// NewGateway validates cfg and builds the gateway with every peer in the
// ring.
func NewGateway(cfg Config) (*Gateway, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cinemacluster: no peers")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cinemacluster: replicas must be positive, got %d", cfg.Replicas)
	}
	if cfg.Replicas > len(cfg.Peers) {
		cfg.Replicas = len(cfg.Peers)
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = cinemaserve.DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = cinemaserve.DefaultBreakerCooldown
	}
	reg := cfg.Telemetry
	g := &Gateway{
		cfg:      cfg,
		ring:     NewRing(DefaultVirtualNodes),
		byName:   map[string]*peerNode{},
		lane:     cfg.Tracer.Lane("cluster.gateway"),
		peerSite: cfg.Faults.Site("cluster.peer"),
		maxBody:  maxFrameBytes,

		mRequests:    reg.Counter("requests"),
		mErrors:      reg.Counter("errors"),
		mFailover:    reg.Counter("failover"),
		mEjectSkips:  reg.Counter("eject.skips"),
		mPeerHits:    reg.Counter("peer.hits"),
		mPeerProbes:  reg.Counter("peer.probes"),
		mCacheHits:   reg.Counter("cache.hits"),
		mCacheMisses: reg.Counter("cache.misses"),
		mInjected:    reg.Counter("faults.injected"),
		mBytesOut:    reg.Counter("bytes.out"),
		mCorrupt:     reg.Counter("corrupt"),
		mRepairs:     reg.Counter("repairs"),
		mRepairErrs:  reg.Counter("repair.errors"),
		mDials:       reg.Counter("peer.dials"),
	}
	g.client = &http.Client{Timeout: DefaultFetchTimeout, Transport: g.peerTransport()}
	g.cache = cinemaserve.NewCache(cfg.CacheBytes, frameID.hash, reg.Counter("cache.evictions"), reg.Gauge("cache.used.bytes"))
	reg.Gauge("replicas").Set(int64(cfg.Replicas))
	reg.Gauge("nodes").Set(int64(len(cfg.Peers)))
	for i, base := range cfg.Peers {
		base = strings.TrimRight(base, "/")
		if base == "" {
			return nil, fmt.Errorf("cinemacluster: empty peer URL at index %d", i)
		}
		name := fmt.Sprintf("node%d", i)
		p := &peerNode{
			name: name, base: base,
			brk:       cinemaserve.NewBreaker(name, cfg.BreakerThreshold, cfg.BreakerCooldown, reg),
			mRequests: reg.Counter("node." + name + ".requests"),
			mOK:       reg.Counter("node." + name + ".ok"),
			mFailures: reg.Counter("node." + name + ".failures"),
			mSheds:    reg.Counter("node." + name + ".sheds"),
			gUp:       reg.Gauge("node." + name + ".up"),
		}
		g.peers = append(g.peers, p)
		g.byName[name] = p
		g.ring.Add(name)
	}
	return g, nil
}

// peerTransport is the one transport every peer fetch and scrape shares.
// It keeps as many idle connections per node as a node admits requests at
// once (cinemaserve.DefaultMaxInflight), with no fleet-wide idle cap, so
// concurrent relays reuse the connections they opened instead of
// re-dialling: the default transport keeps two per host. Every dial,
// failed ones included, counts in peer.dials.
func (g *Gateway) peerTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = cinemaserve.DefaultMaxInflight
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		g.mDials.Inc()
		return dial(ctx, network, addr)
	}
	return tr
}

// NodeState reports the named node's breaker state
// (cinemaserve.BreakerClosed / Open / HalfOpen).
func (g *Gateway) NodeState(name string) int {
	p := g.byName[name]
	if p == nil {
		return cinemaserve.BreakerClosed
	}
	return p.brk.State()
}

// Close releases idle peer connections. The gateway starts goroutines
// only inside ServeMetrics scrapes, and those are joined before the
// handler returns, so Close is all the shutdown there is.
func (g *Gateway) Close() {
	g.client.CloseIdleConnections()
}

// Handler returns the gateway's /cinema/ interface, route-compatible
// with a single server's Handler: callers mount it under the same
// prefix,
//
//	mux.Handle("/cinema/", http.StripPrefix("/cinema", gw.Handler()))
//
// and clients cannot tell a gateway from a node — same paths, same
// status codes, same headers.
func (g *Gateway) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		g.mRequests.Inc()
		path := strings.TrimPrefix(r.URL.Path, "/")
		store, rest, _ := strings.Cut(path, "/")
		q, ok, err := cinemaserve.ParseFrameQuery(rest, r.URL.RawQuery)
		switch {
		case !ok:
			// Listing, store info, index.json: identical on every node
			// (shared storage), so any healthy one may answer.
			g.relayAny(w, r)
		case err != nil:
			// The node's own parser, so the node's own 400 — answered
			// here, before any peer is contacted or struck.
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			g.fetchTiered(w, r, store, q)
		}
	})
}

// frameID is the gateway cache key: the store plus the parsed request —
// not the raw query string — so time=1, time=1.0 and reordered
// parameters are one entry, while exact and nearest requests for one
// point, which may resolve to different frames, stay distinct.
type frameID struct {
	store string
	q     cinemaserve.FrameQuery // CacheOnly always false
}

// hash places the frame on the ring: HashKey of the store and axis point,
// or HashFile for a by-file request. The gateway cache's admission sketch
// counts requests by the same hash, so an exact and a nearest request for
// one point share a counter.
func (id frameID) hash() uint64 {
	if id.q.File != "" {
		return HashFile(id.store, id.q.File)
	}
	return HashKey(id.store, id.q.Key)
}

// repairTarget remembers a replica that reported a corrupt copy of a
// frame during the failover walk, so good bytes found later in the same
// walk can be written back over it.
type repairTarget struct {
	node string
	file string
}

// fetchTiered serves one frame: from gateway memory, else by one full
// read on the first healthy owner — which answers from its own cache
// before it touches disk — or, all owners down, on any healthy node,
// which shared storage makes safe. A node answering 500 +
// X-Cinema-Corrupt is alive but holds a rotten replica: the walk
// continues (no breaker strike — integrity is not availability), and
// once a healthy candidate supplies verified bytes the corrupt replica is
// repaired in place. The frame is routed, cached and forwarded as the
// parsed request, so every spelling of one point shares owners, cache
// entry and peer URL. A client's own cacheonly request never reads: it
// probes the owners' memory and ends in 204 (probeOwners).
func (g *Gateway) fetchTiered(w http.ResponseWriter, r *http.Request, store string, q cinemaserve.FrameQuery) {
	cacheOnly := q.CacheOnly
	q.CacheOnly = false
	id := frameID{store: store, q: q}
	if data, file, ok := g.cache.Get(id); ok {
		g.mCacheHits.Inc()
		g.writeFrame(w, data, file, "")
		return
	}
	g.mCacheMisses.Inc()

	owners := g.ring.Owners(id.hash(), g.cfg.Replicas, make([]string, 0, g.cfg.Replicas))
	storePath := "/cinema/" + url.PathEscape(store) + "/"
	if cacheOnly {
		g.probeOwners(w, r, id, owners, storePath)
		return
	}

	// Owners first (their cache fills where the hash says the frame
	// lives), then everyone else as a last resort.
	sawShed := false
	var corrupt []repairTarget
	readRoute := storePath + q.Route()
	for i, name := range append(owners, g.ring.Nodes()...) {
		if i >= len(owners) && slices.Contains(owners, name) {
			continue // an owner, already asked
		}
		p := g.byName[name]
		if p == nil || !g.admit(p) {
			continue
		}
		data, status, header := g.peerFetch(r.Context(), p, p.base+readRoute)
		switch status {
		case http.StatusOK:
			file := header.Get("X-Cinema-File")
			g.cache.Put(id, data, file)
			g.writeFrame(w, data, file, p.name)
			g.repair(store, corrupt, file, data)
			return
		case http.StatusNotFound:
			// The index is shared: a healthy node's 404 is the cluster's
			// 404. Relay it rather than hunting for a different answer.
			http.Error(w, "not found", http.StatusNotFound)
			return
		case http.StatusInternalServerError:
			// Only a corrupt replica's 500 comes back from peerFetch.
			g.mCorrupt.Inc()
			g.lane.Instant("corrupt." + p.name)
			corrupt = append(corrupt, repairTarget{node: p.name, file: header.Get("X-Cinema-Corrupt")})
		case http.StatusServiceUnavailable:
			sawShed = true
		}
	}
	g.exhausted(w, sawShed)
}

// probeOwners answers a client's cacheonly request that missed gateway
// memory: a cacheonly probe of each healthy owner's memory, first
// resident copy wins, else 204. A probe never costs a peer a disk read
// and can never report corruption — only verified frames enter a node's
// cache. These probes are all that peer.probes and peer.hits count.
func (g *Gateway) probeOwners(w http.ResponseWriter, r *http.Request, id frameID, owners []string, storePath string) {
	probe := id.q
	probe.CacheOnly = true
	probeRoute := storePath + probe.Route()
	for _, name := range owners {
		p := g.byName[name]
		if p == nil || !g.admit(p) {
			continue
		}
		g.mPeerProbes.Inc()
		data, status, header := g.peerFetch(r.Context(), p, p.base+probeRoute)
		if status == http.StatusOK {
			g.mPeerHits.Inc()
			file := header.Get("X-Cinema-File")
			g.cache.Put(id, data, file)
			g.writeFrame(w, data, file, p.name)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// repair rewrites every corrupt replica of file with the verified bytes
// a healthy candidate served, through the store's atomic
// temp+fsync+rename path. Only replicas with a configured RepairDirs
// mapping are written; names are restricted to bare files (headers are
// peer input, not trusted paths). The corrupted node re-verifies on its
// next read of the frame, so a successful repair heals its in-memory
// quarantine without coordination.
func (g *Gateway) repair(store string, targets []repairTarget, file string, data []byte) {
	if len(targets) == 0 || file == "" || len(data) == 0 {
		return
	}
	if filepath.Base(file) != file || file == "." || file == ".." {
		return
	}
	for _, t := range targets {
		if t.file != file {
			continue
		}
		dir := g.cfg.RepairDirs[t.node+"/"+store]
		if dir == "" {
			continue
		}
		if err := cinemastore.WriteFileAtomic(dir, file, data); err != nil {
			g.mRepairErrs.Inc()
			g.lane.Instant("repair.error." + t.node)
			continue
		}
		g.mRepairs.Inc()
		g.lane.Instant("repair." + t.node)
	}
}

// admit applies the breaker filter: an open breaker ejects the node from
// routing until its cooldown admits a half-open probe, and the skip is
// counted and marked on the timeline.
func (g *Gateway) admit(p *peerNode) bool {
	if p.brk.Allow() {
		return true
	}
	g.mEjectSkips.Inc()
	g.lane.Instant("eject." + p.name)
	return false
}

// exhausted answers a request every candidate failed or shed: 503 when
// at least one node was merely shedding (the cluster is overloaded, not
// broken), 502 otherwise.
func (g *Gateway) exhausted(w http.ResponseWriter, sawShed bool) {
	if sawShed {
		cinemaserve.SetRetryAfter(w, g.cfg.RetryAfter)
		http.Error(w, "cluster overloaded, retry later", http.StatusServiceUnavailable)
		return
	}
	g.mErrors.Inc()
	http.Error(w, "no node could serve the request", http.StatusBadGateway)
}

// relayAny forwards a hashless route (listing, store info, index.json)
// to the first healthy node, starting at a round-robin cursor so the
// metadata load spreads, with the same failover walk as frames.
func (g *Gateway) relayAny(w http.ResponseWriter, r *http.Request) {
	n := len(g.peers)
	start := int(g.rr.Add(1)) % n
	sawShed := false
	for i := 0; i < n; i++ {
		p := g.peers[(start+i)%n]
		if !g.admit(p) {
			continue
		}
		data, status, header := g.peerFetch(r.Context(), p, p.base+"/cinema"+r.URL.RequestURI())
		switch status {
		case 0: // struck; on to the next node
		case http.StatusServiceUnavailable:
			sawShed = true
		default:
			if ct := header.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.WriteHeader(status)
			_, _ = w.Write(data)
			g.mBytesOut.Add(int64(len(data)))
			return
		}
	}
	g.exhausted(w, sawShed)
}

// peerFetch performs one GET against p and settles what the answer
// means for the node's health. The "cluster.peer" fault site is consulted
// first: an injected error fails the fetch without touching the network,
// exactly as a dropped connection would. 200, 204 (not resident) and 404
// are a healthy node answering; so is 500 + X-Cinema-Corrupt — the node
// detected and quarantined a corrupt replica, which is honest, not sick;
// 503 is shedding — load, not sickness. Anything else, transport errors
// included, is a breaker strike and comes back as status 0: the caller
// moves on to the next candidate, which is what cluster.failover counts.
func (g *Gateway) peerFetch(ctx context.Context, p *peerNode, rawURL string) (data []byte, status int, header http.Header) {
	p.mRequests.Inc()
	var err error
	if f, ok := g.peerSite.Next(); ok && f.Kind == faults.KindError {
		g.mInjected.Inc()
		err = fmt.Errorf("cinemacluster: injected peer failure (fault #%d)", f.Seq)
	} else {
		data, status, header, err = g.get(ctx, rawURL)
	}
	healthy := status == http.StatusOK || status == http.StatusNoContent || status == http.StatusNotFound
	switch {
	case err == nil && healthy:
		p.brk.OnSuccess()
		p.mOK.Inc()
	case err == nil && status == http.StatusInternalServerError && header.Get("X-Cinema-Corrupt") != "":
		p.brk.OnSuccess()
	case err == nil && status == http.StatusServiceUnavailable:
		p.mSheds.Inc()
	default:
		p.brk.OnFailure()
		p.mFailures.Inc()
		g.mFailover.Inc()
		g.lane.Instant("failover." + p.name)
		return nil, 0, nil
	}
	return data, status, header
}

// get reads one response whole, into a buffer of exactly its size. A
// body beyond maxBody is an error, not a truncation, and so is one shorter
// than its declared length: a cut-off frame must never reach a client or
// the cache.
func (g *Gateway) get(ctx context.Context, rawURL string) ([]byte, int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength, g.maxBody)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("cinemacluster: %s: %w", rawURL, err)
	}
	return body, resp.StatusCode, resp.Header, nil
}

// readBody reads r whole, bounded by limit bytes. A declared length n
// (n >= 0) is checked against the bound before any byte is read, then
// filled by one read into a buffer of exactly n bytes, so a cached frame
// holds no spare capacity; a body that ends early fails with
// io.ErrUnexpectedEOF. A body of unknown length (n < 0: chunked /metrics
// scrapes, a large index.json) is read growing, and one byte past the
// bound fails it.
func readBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n > limit {
		return nil, fmt.Errorf("declared body of %d bytes exceeds %d", n, limit)
	}
	if n >= 0 {
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return body, nil
}

// writeFrame relays a frame to the client. node, when non-empty, names
// the peer that actually served the bytes (X-Cinema-Node) — gateway
// cache hits omit it, since the origin is no longer known.
func (g *Gateway) writeFrame(w http.ResponseWriter, data []byte, file, node string) {
	cinemaserve.WriteFrame(w, data, file, node)
	g.mBytesOut.Add(int64(len(data)))
}

// ServeMetrics writes the cluster-wide exposition: the gateway's own
// registry under MetricsPrefix, then every node's /metrics document
// reprefixed with its node name. Node scrapes run concurrently under
// DefaultScrapeTimeout; an unreachable node contributes nothing except its
// node.<name>.up gauge dropping to 0, so the union degrades per node,
// never as a whole.
func (g *Gateway) ServeMetrics(w http.ResponseWriter, r *http.Request) {
	bodies := make([][]byte, len(g.peers))
	var wg sync.WaitGroup
	for i, p := range g.peers {
		wg.Add(1)
		go func(i int, p *peerNode) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), DefaultScrapeTimeout)
			defer cancel()
			if body, status, _, err := g.get(ctx, p.base+"/metrics"); err == nil && status == http.StatusOK {
				bodies[i] = body
			}
		}(i, p)
	}
	wg.Wait()
	for i, p := range g.peers {
		if bodies[i] != nil {
			p.gUp.Set(1)
		} else {
			p.gUp.Set(0)
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	union := telemetry.NewUnion().Add(MetricsPrefix, g.cfg.Telemetry)
	_ = union.Snapshot().WriteText(w)
	for i, p := range g.peers {
		if bodies[i] != nil {
			_ = telemetry.ReprefixText(w, p.name+".", bodies[i])
		}
	}
}
