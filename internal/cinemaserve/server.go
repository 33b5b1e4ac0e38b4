// Package cinemaserve is the read path of the in-situ workflow: a
// production-shaped query server over one or more Cinema image databases
// (internal/cinemastore). The paper's pipeline renders in situ precisely
// so scientists can later browse the image store interactively; this
// package is the half that takes the browsing traffic.
//
// The serving contracts, in order of importance:
//
//   - Bounded memory. Frames are cached in a byte-budgeted LRU; the
//     budget is a hard ceiling on resident frame bytes.
//
//   - Bounded concurrency. Admission control holds a fixed number of
//     request slots; when all slots are busy the HTTP layer sheds the
//     request with 503 + Retry-After instead of queueing unboundedly, so
//     overload degrades throughput, never liveness.
//
//   - Coalesced misses. Concurrent misses on one frame are collapsed by
//     a singleflight group into at most one store read per key per miss
//     window; the backing store sees cache-miss traffic, not user
//     traffic.
//
//   - Zero-allocation hits. Frame resolution, cache lookup, and the
//     telemetry on a cache hit allocate nothing, so the hot path's cost
//     is two mutex round trips and the atomic metric updates
//     (BenchmarkCinemaServeHot pins 0 allocs/op).
//
// Telemetry is registered under plain names ("requests", "cache.hits",
// "latency.ns", ...); mount the server's registry in a telemetry.Union
// under a prefix (conventionally "serve.") to compose it with other
// components' expositions.
package cinemaserve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

// Defaults for Config zero values.
const (
	DefaultCacheBytes       = 64 << 20
	DefaultMaxInflight      = 64
	DefaultRetryAfter       = 1 * time.Second
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 500 * time.Millisecond
)

// ResponseSizeBuckets are the upper bounds (bytes) of the response.bytes
// histogram, matching the render layer's frame-size decades.
var ResponseSizeBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// Config configures a Server.
type Config struct {
	// CacheBytes is the frame cache budget. Zero selects
	// DefaultCacheBytes; negative disables caching entirely.
	CacheBytes int64
	// MaxInflight is the number of concurrently admitted HTTP requests;
	// requests beyond it are shed with 503. Zero selects
	// DefaultMaxInflight.
	MaxInflight int
	// RetryAfter is the backoff advertised on shed responses. Zero
	// selects DefaultRetryAfter.
	RetryAfter time.Duration
	// Telemetry receives the server's metrics. Nil runs unobserved
	// (handles no-op).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, receives one lane per admission slot
	// ("serve.slot<N>"): each admitted request records a "serve.frame"
	// span (with a nested "store.read" span on a miss) on its slot's
	// lane, so a Perfetto view shows the request lanes side by side.
	Tracer *trace.Tracer
	// BreakerThreshold is the consecutive store-read failures that open
	// a mount's circuit breaker. Zero selects DefaultBreakerThreshold;
	// negative disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects reads before
	// admitting a half-open probe. Zero selects DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Faults, when non-nil, arms the "serve.read" fault site: injected
	// errors fail store reads (and strike the breaker) exactly as a
	// failing disk would.
	Faults *faults.Injector
}

// Errors the fetch path distinguishes for the HTTP status mapping.
var (
	// ErrNotFound reports an unknown store, variable, or — for exact
	// lookups — axis point.
	ErrNotFound = errors.New("cinemaserve: not found")
	// ErrOverloaded reports that admission control shed the request.
	ErrOverloaded = errors.New("cinemaserve: overloaded, retry later")
	// ErrUnavailable reports that the mount's circuit breaker is open:
	// the backing store has been failing and reads are rejected until a
	// half-open probe succeeds.
	ErrUnavailable = errors.New("cinemaserve: store unavailable, breaker open")
)

// InjectedReadError is a fault-injected store-read failure.
type InjectedReadError struct{ Seq uint64 }

func (e *InjectedReadError) Error() string {
	return fmt.Sprintf("cinemaserve: injected store-read failure (fault #%d)", e.Seq)
}

// CorruptFrameError reports a frame whose bytes failed integrity
// verification on cache fill or scrub: the disk answered, but with the
// wrong bytes. It is not an availability failure — the breaker is never
// struck for it — and the frame is quarantined in memory, never served
// and never cached, until a later read verifies clean (for example after
// a cluster gateway repaired the replica).
type CorruptFrameError struct {
	// Store is the mount name, File the divergent frame.
	Store, File string
	// Cause is the underlying *cinemastore.IntegrityError.
	Cause error
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("cinemaserve: corrupt frame %s/%s: %v", e.Store, e.File, e.Cause)
}

func (e *CorruptFrameError) Unwrap() error { return e.Cause }

func isCorrupt(err error) bool {
	var corrupt *CorruptFrameError
	return errors.As(err, &corrupt)
}

// mount is one served store.
type mount struct {
	name  string
	id    int32
	store *cinemastore.Store
	brk   *Breaker

	// quar marks entry indexes whose last read failed integrity
	// verification. Quarantine is in-memory only: stores may be shared
	// between replicas (cluster-smoke mounts one directory on every
	// node), so an on-disk move here would damage healthy peers. A
	// quarantined entry is re-read and re-verified on its next fetch, so
	// a repaired replica heals without intervention. qn mirrors
	// len(quar) atomically so hot paths can skip the lock when empty.
	qmu  sync.Mutex
	quar map[int32]bool
	qn   int32
}

// setQuarantined marks or clears an entry's quarantine, returning the
// delta it applied to the server-wide quarantined gauge.
func (m *mount) setQuarantined(idx int32, bad bool) int64 {
	if !bad && atomic.LoadInt32(&m.qn) == 0 {
		return 0
	}
	m.qmu.Lock()
	defer m.qmu.Unlock()
	switch {
	case bad && !m.quar[idx]:
		if m.quar == nil {
			m.quar = map[int32]bool{}
		}
		m.quar[idx] = true
		atomic.AddInt32(&m.qn, 1)
		return 1
	case !bad && m.quar[idx]:
		delete(m.quar, idx)
		atomic.AddInt32(&m.qn, -1)
		return -1
	}
	return 0
}

// Server serves frames from one or more mounted Cinema stores through a
// shared cache with singleflight miss coalescing. Safe for concurrent
// use.
type Server struct {
	cfg   Config
	cache *Cache[cacheKey]

	mu      sync.RWMutex
	mounts  []*mount
	byName  map[string]int32
	flights flightGroup

	slots     chan int32
	slotLanes []*trace.Lane

	// testLoadGate, when non-nil, blocks every store read until the gate
	// closes — tests use it to hold a request in flight deterministically.
	testLoadGate <-chan struct{}

	readSite *faults.Site

	mRequests   *telemetry.Counter
	mHits       *telemetry.Counter
	mMisses     *telemetry.Counter
	mShed       *telemetry.Counter
	mErrors     *telemetry.Counter
	mCanceled   *telemetry.Counter
	mInjected   *telemetry.Counter
	mStoreReads *telemetry.Counter
	mPeekMiss   *telemetry.Counter
	mBytesOut   *telemetry.Counter
	mCorrupt    *telemetry.Counter
	gQuar       *telemetry.Gauge
	gInflight   *telemetry.Gauge
	hLatency    *telemetry.Histogram
	hRespBytes  *telemetry.Histogram

	scrub scrubState
}

// NewServer returns an empty server; mount stores with Mount.
func NewServer(cfg Config) *Server {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	reg := cfg.Telemetry
	s := &Server{
		cfg:      cfg,
		byName:   map[string]int32{},
		readSite: cfg.Faults.Site("serve.read"),

		mRequests:   reg.Counter("requests"),
		mHits:       reg.Counter("cache.hits"),
		mMisses:     reg.Counter("cache.misses"),
		mShed:       reg.Counter("shed"),
		mErrors:     reg.Counter("errors"),
		mCanceled:   reg.Counter("canceled"),
		mInjected:   reg.Counter("faults.injected"),
		mStoreReads: reg.Counter("store.reads"),
		mPeekMiss:   reg.Counter("cacheonly.misses"),
		mBytesOut:   reg.Counter("bytes.out"),
		mCorrupt:    reg.Counter("corrupt"),
		gQuar:       reg.Gauge("quarantined"),
		gInflight:   reg.Gauge("inflight.highwater"),
		hLatency:    reg.Histogram("latency.ns", telemetry.LatencyBuckets),
		hRespBytes:  reg.Histogram("response.bytes", ResponseSizeBuckets),
	}
	s.scrub.init(reg)
	s.cache = NewCache(cfg.CacheBytes, cacheKey.hash, reg.Counter("cache.evictions"), reg.Gauge("cache.used.bytes"))
	reg.Gauge("cache.budget.bytes").Set(cfg.CacheBytes)
	reg.Gauge("slots").Set(int64(cfg.MaxInflight))

	s.slots = make(chan int32, cfg.MaxInflight)
	s.slotLanes = make([]*trace.Lane, cfg.MaxInflight)
	for i := 0; i < cfg.MaxInflight; i++ {
		s.slots <- int32(i)
		s.slotLanes[i] = cfg.Tracer.Lane(fmt.Sprintf("serve.slot%d", i))
	}
	return s
}

// Mount serves store under name (the first path segment below /cinema/).
// Mounting a name twice is an error.
func (s *Server) Mount(name string, store *cinemastore.Store) error {
	if name == "" || store == nil {
		return fmt.Errorf("cinemaserve: empty mount name or nil store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byName[name]; ok {
		return fmt.Errorf("cinemaserve: store %q already mounted", name)
	}
	m := &mount{
		name: name, id: int32(len(s.mounts)), store: store,
		brk: NewBreaker(name, s.cfg.BreakerThreshold, s.cfg.BreakerCooldown, s.cfg.Telemetry),
	}
	s.byName[name] = m.id
	s.mounts = append(s.mounts, m)
	return nil
}

// BreakerState reports the named mount's breaker state (0 closed,
// 1 open, 2 half-open); closed for unknown mounts or disabled breakers.
func (s *Server) BreakerState(name string) int {
	m := s.lookupMount(name)
	if m == nil {
		return BreakerClosed
	}
	return m.brk.State()
}

// Stores returns the mounted store names in mount order.
func (s *Server) Stores() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.mounts))
	for i, m := range s.mounts {
		out[i] = m.name
	}
	return out
}

// Store returns a mounted store by name.
func (s *Server) Store(name string) (*cinemastore.Store, bool) {
	m := s.lookupMount(name)
	if m == nil {
		return nil, false
	}
	return m.store, true
}

func (s *Server) lookupMount(name string) *mount {
	s.mu.RLock()
	id, ok := s.byName[name]
	var m *mount
	if ok {
		m = s.mounts[id]
	}
	s.mu.RUnlock()
	return m
}

// FrameQuery is one parsed frame request. It is a comparable value: a
// node resolves it to a (mount, entry) pair, a cluster gateway routes on
// it and keys its memory tier by it.
type FrameQuery struct {
	// Key is the requested axis point; unused when File is set.
	Key cinemastore.Key
	// File, when non-empty, addresses the frame by stored file name
	// instead, for clients that walk the index and fetch files directly.
	File string
	// Nearest snaps Key to the closest stored frame instead of requiring
	// an exact match.
	Nearest bool
	// CacheOnly answers from the in-memory cache alone: the fetch never
	// touches the store, never strikes the breaker, and never starts a
	// flight. A cluster gateway forwards a client's cacheonly request to
	// the owning nodes as such probes, so a miss must stay cheap and
	// side-effect free.
	CacheOnly bool
}

// errNotResident answers a CacheOnly fetch whose frame is not in memory.
var errNotResident = errors.New("cinemaserve: frame not resident")

// Frame resolves key in the named store — exactly, or to the nearest
// stored frame when nearest is true — and returns the encoded frame
// bytes plus the entry they came from. The returned slice is shared with
// the cache and must not be modified. On a cache hit the call allocates
// nothing.
func (s *Server) Frame(store string, key cinemastore.Key, nearest bool) ([]byte, cinemastore.Entry, error) {
	return s.frame(nil, store, key, nearest, nil)
}

func (s *Server) frame(ctx context.Context, store string, key cinemastore.Key, nearest bool, lane *trace.Lane) ([]byte, cinemastore.Entry, error) {
	return s.fetch(ctx, store, FrameQuery{Key: key, Nearest: nearest}, lane)
}

// fetch is the one frame path behind Frame and both HTTP
// routes: resolve the request to an entry, get its bytes from the cache
// or the store, account for the outcome.
func (s *Server) fetch(ctx context.Context, store string, q FrameQuery, lane *trace.Lane) ([]byte, cinemastore.Entry, error) {
	start := time.Now()
	s.mRequests.Inc()
	var data []byte
	var err error
	m, idx, ok := s.resolve(store, q)
	switch {
	case ok && q.CacheOnly:
		data, err = s.frameCachedAt(m, idx)
	case ok:
		data, err = s.frameAt(ctx, m, idx, lane)
	case q.CacheOnly:
		// A probe does not tell "no such frame" from "not in memory".
		err = errNotResident
	default:
		err = ErrNotFound
	}
	if err != nil {
		s.countFetchError(err)
		return nil, cinemastore.Entry{}, err
	}
	s.observe(start, len(data))
	return data, m.store.EntryAt(idx), nil
}

// resolve maps a request onto the mount and canonical entry index it
// names; ok is false for an unknown store, variable, file or — for exact
// lookups — axis point.
func (s *Server) resolve(store string, q FrameQuery) (m *mount, idx int, ok bool) {
	if m = s.lookupMount(store); m == nil {
		return nil, 0, false
	}
	switch {
	case q.File != "":
		idx, ok = m.store.LookupFileIndex(q.File)
	case q.Nearest:
		idx, ok = m.store.NearestIndex(q.Key)
	default:
		idx, ok = m.store.LookupIndex(q.Key)
	}
	return m, idx, ok
}

func (s *Server) frameCachedAt(m *mount, idx int) ([]byte, error) {
	data, _, ok := s.cache.Get(cacheKey{mount: m.id, entry: int32(idx)})
	if !ok {
		return nil, errNotResident
	}
	s.mHits.Inc()
	return data, nil
}

// countFetchError classifies a failed fetch: a client that went away is
// serve.canceled (never an error, never a breaker strike — the detached
// read keeps running for the peers that stayed), a breaker rejection is
// already counted by the breaker, a corrupt frame is already counted
// (once per verification, not per coalesced waiter) under serve.corrupt,
// a cacheonly probe that found nothing is a peek miss, and everything
// else — not found included — is a serve error.
func (s *Server) countFetchError(err error) {
	switch {
	case err == errNotResident:
		s.mPeekMiss.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.mCanceled.Inc()
	case errors.Is(err, ErrUnavailable):
	case isCorrupt(err):
	default:
		s.mErrors.Inc()
	}
}

// observe records the fetch's latency and size. Allocation-free.
func (s *Server) observe(start time.Time, n int) {
	s.hLatency.Observe(float64(time.Since(start)))
	s.hRespBytes.Observe(float64(n))
	s.mBytesOut.Add(int64(n))
}

// frameAt returns entry idx of mount m, from cache or — coalesced — from
// the store. lane, when non-nil, receives a "store.read" span around an
// actual disk read. A cancelable ctx lets the caller stop waiting; the
// read itself runs detached, so one impatient client cannot poison the
// result its coalesced peers are still waiting for.
func (s *Server) frameAt(ctx context.Context, m *mount, idx int, lane *trace.Lane) ([]byte, error) {
	ck := cacheKey{mount: m.id, entry: int32(idx)}
	if data, _, ok := s.cache.Get(ck); ok {
		s.mHits.Inc()
		return data, nil
	}
	s.mMisses.Inc()
	return s.flights.do(ctx, ck, func() ([]byte, error) {
		// A concurrent flight may have filled the cache between our miss
		// and this flight starting; re-check before touching the store.
		// The miss above already counted this request's frequency.
		if data, _, ok := s.cache.get(ck, false); ok {
			return data, nil
		}
		if !m.brk.Allow() {
			return nil, ErrUnavailable
		}
		if s.testLoadGate != nil {
			<-s.testLoadGate
		}
		if f, ok := s.readSite.Next(); ok && f.Kind == faults.KindError {
			s.mInjected.Inc()
			m.brk.OnFailure()
			return nil, &InjectedReadError{Seq: f.Seq}
		}
		s.mStoreReads.Inc()
		data, _, err := s.readVerified(m, idx, lane)
		switch {
		case err == nil:
			m.brk.OnSuccess()
			// The node has the index, so it keeps no file name in the cache.
			s.cache.Put(ck, data, "")
		case isCorrupt(err):
			// The disk answered; the question is integrity, not
			// availability, so the breaker sees a success.
			m.brk.OnSuccess()
		default:
			m.brk.OnFailure()
		}
		return data, err
	})
}

// readVerified is the one place frame bytes come off disk, for cache
// fills and scrub sweeps alike: read entry idx of m (a "store.read" span
// on lane), verify it, and keep the mount's quarantine in step. Length is
// checked before the digest — a frame truncated mid-read must never be
// cached, and the cheap check catches it without paying for a hash. A
// divergent frame is counted, quarantined and returned as a
// *CorruptFrameError without its bytes; a clean one clears any earlier
// quarantine. Any other error is the store's read failure. read is the
// byte count the disk returned, verified or not.
func (s *Server) readVerified(m *mount, idx int, lane *trace.Lane) (data []byte, read int, err error) {
	lane.Begin("store.read")
	data, err = m.store.ReadFrameAt(idx)
	lane.End()
	if err != nil {
		return nil, 0, err
	}
	e := m.store.EntryAt(idx)
	if verr := e.VerifyFrame(data); verr != nil {
		s.mCorrupt.Inc()
		s.gQuar.Add(m.setQuarantined(int32(idx), true))
		lane.Instant("corrupt")
		return nil, len(data), &CorruptFrameError{Store: m.name, File: e.File, Cause: verr}
	}
	s.gQuar.Add(m.setQuarantined(int32(idx), false))
	return data, len(data), nil
}

// flight is one in-progress store read; latecomers block on done and
// share the result.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// flightGroup coalesces concurrent loads of the same key — a minimal
// singleflight: the first caller for a key starts fn on a detached
// goroutine, everyone arriving during that window waits and shares the
// outcome. Waiters honor their context: a canceled caller returns its
// ctx error immediately while the flight runs to completion for the
// others (and still fills the cache).
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*flight
}

func (g *flightGroup) do(ctx context.Context, k cacheKey, fn func() ([]byte, error)) ([]byte, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[cacheKey]*flight{}
	}
	f, ok := g.m[k]
	if !ok {
		f = &flight{done: make(chan struct{})}
		g.m[k] = f
		go func() {
			f.data, f.err = fn()
			g.mu.Lock()
			delete(g.m, k)
			g.mu.Unlock()
			close(f.done)
		}()
	}
	g.mu.Unlock()

	if ctx == nil {
		<-f.done
		return f.data, f.err
	}
	select {
	case <-f.done:
		return f.data, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// acquireSlot claims an admission slot without blocking. On success it
// returns the slot ID and its trace lane; on failure the request must be
// shed. The high-water gauge tracks peak concurrent admissions.
func (s *Server) acquireSlot() (int32, *trace.Lane, bool) {
	select {
	case id := <-s.slots:
		s.gInflight.SetMax(int64(s.cfg.MaxInflight - len(s.slots)))
		return id, s.slotLanes[id], true
	default:
		s.mShed.Inc()
		return 0, nil, false
	}
}

// releaseSlot returns a slot claimed by acquireSlot.
func (s *Server) releaseSlot(id int32) { s.slots <- id }

// QuarantinedFiles lists the named store's in-memory-quarantined frame
// files (unsorted), for operators and tests.
func (s *Server) QuarantinedFiles(store string) []string {
	m := s.lookupMount(store)
	if m == nil {
		return nil
	}
	m.qmu.Lock()
	defer m.qmu.Unlock()
	out := make([]string, 0, len(m.quar))
	for idx := range m.quar {
		out = append(out, m.store.EntryAt(int(idx)).File)
	}
	return out
}

// CacheLen reports the currently resident frame count.
func (s *Server) CacheLen() int { return s.cache.Len() }
