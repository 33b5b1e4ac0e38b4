package cinemaserve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/leakcheck"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

// buildStore writes a small database: vars variables x times steps x the
// given cameras, every frame frameBytes long with recognizable content.
func buildStore(t testing.TB, vars, steps int, cams []cinemastore.Key, frameBytes int) *cinemastore.Store {
	t.Helper()
	return buildStoreIn(t, t.TempDir(), vars, steps, cams, frameBytes)
}

// buildStoreIn is buildStore into dir.
func buildStoreIn(t testing.TB, dir string, vars, steps int, cams []cinemastore.Key, frameBytes int) *cinemastore.Store {
	t.Helper()
	w, err := cinemastore.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cams) == 0 {
		cams = []cinemastore.Key{{}}
	}
	for v := 0; v < vars; v++ {
		for ts := 0; ts < steps; ts++ {
			for _, cam := range cams {
				key := cinemastore.Key{
					Time: float64(ts), Phi: cam.Phi, Theta: cam.Theta,
					Variable: fmt.Sprintf("var%d", v),
				}
				data := bytes.Repeat([]byte{byte(v*steps + ts)}, frameBytes)
				if _, err := w.Put(key, data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := cinemastore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newTestServer(t testing.TB, cfg Config) (*Server, *telemetry.Registry) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	s := NewServer(cfg)
	return s, cfg.Telemetry
}

func TestFrameExactNearestAndByFile(t *testing.T) {
	cams := []cinemastore.Key{{Phi: 0.5, Theta: 0.25}, {Phi: -0.5, Theta: 0.25}}
	st := buildStore(t, 2, 4, cams, 64)
	s, _ := newTestServer(t, Config{})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}

	key := cinemastore.Key{Time: 2, Phi: 0.5, Theta: 0.25, Variable: "var1"}
	data, entry, err := s.Frame("run", key, false)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	if entry.Key != key || len(data) != 64 {
		t.Errorf("exact entry = %+v, %d bytes", entry, len(data))
	}

	// Nearest snaps time and camera.
	near := cinemastore.Key{Time: 2.4, Phi: 0.48, Theta: 0.3, Variable: "var1"}
	_, entry, err = s.Frame("run", near, true)
	if err != nil {
		t.Fatalf("nearest: %v", err)
	}
	if entry.Key != key {
		t.Errorf("nearest resolved to %+v, want %+v", entry.Key, key)
	}

	// By file name, through the same cache.
	data2, entry2, err := s.fetch(nil, "run", FrameQuery{File: entry.File}, nil)
	if err != nil {
		t.Fatalf("by file: %v", err)
	}
	if entry2.File != entry.File || !bytes.Equal(data, data2) {
		t.Errorf("by-file mismatch: %+v", entry2)
	}

	// Misses.
	if _, _, err := s.Frame("nope", key, false); err != ErrNotFound {
		t.Errorf("unknown store: %v", err)
	}
	if _, _, err := s.Frame("run", cinemastore.Key{Variable: "ghost"}, true); err != ErrNotFound {
		t.Errorf("unknown variable: %v", err)
	}
	if _, _, err := s.Frame("run", cinemastore.Key{Time: 99, Variable: "var0"}, false); err != ErrNotFound {
		t.Errorf("exact miss: %v", err)
	}
	if _, _, err := s.fetch(nil, "run", FrameQuery{File: "absent.png"}, nil); err != ErrNotFound {
		t.Errorf("file miss: %v", err)
	}
}

func TestCacheHitSkipsStore(t *testing.T) {
	st := buildStore(t, 1, 2, nil, 128)
	s, reg := newTestServer(t, Config{})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	key := cinemastore.Key{Time: 1, Variable: "var0"}
	for i := 0; i < 5; i++ {
		if _, _, err := s.Frame("run", key, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("store.reads").Value(); got != 1 {
		t.Errorf("store.reads = %d, want 1", got)
	}
	if got := reg.Counter("cache.hits").Value(); got != 4 {
		t.Errorf("cache.hits = %d, want 4", got)
	}
	if got := reg.Counter("cache.misses").Value(); got != 1 {
		t.Errorf("cache.misses = %d, want 1", got)
	}
}

// TestSingleflightCoalescesConcurrentMisses is the miss-window contract:
// with room in the cache, any number of concurrent requests for one frame
// cost at most one store read — the first flight reads and fills the
// cache before returning, so latecomers either join the flight or hit the
// cache. The store.reads == 1 assertion is deterministic, not timing-luck:
// there is no schedule in which a second read can happen.
func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	st := buildStore(t, 1, 1, nil, 256)
	gate := make(chan struct{})
	s, reg := newTestServer(t, Config{})
	s.testLoadGate = gate
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}

	key := cinemastore.Key{Variable: "var0"}
	const N = 32
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Frame("run", key, false); err != nil {
				errs <- err
			}
		}()
	}
	// Let the herd pile up behind the gated store read, then release.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.Counter("store.reads").Value(); got != 1 {
		t.Errorf("store.reads = %d, want 1 (singleflight failed to coalesce)", got)
	}
}

func TestEvictionKeepsBudget(t *testing.T) {
	const frame, steps = 1 << 10, 8
	st := buildStore(t, 1, steps, nil, frame)
	s, reg := newTestServer(t, Config{CacheBytes: 2 * frame})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	// Frame ts is requested ts+1 times in a row, so every newer frame is
	// hotter than the residents and must displace them once it has been
	// asked for more often than they were.
	for ts := 0; ts < steps; ts++ {
		for n := 0; n <= ts; n++ {
			if _, _, err := s.Frame("run", cinemastore.Key{Time: float64(ts), Variable: "var0"}, false); err != nil {
				t.Fatal(err)
			}
			if got := s.cache.Bytes(); got > 2*frame {
				t.Fatalf("frame %d request %d: cache bytes %d exceed budget %d", ts, n, got, 2*frame)
			}
		}
	}
	if got := reg.Counter("cache.evictions").Value(); got != steps-2 {
		t.Errorf("evictions = %d, want %d", got, steps-2)
	}
	// The two hottest frames are resident, and no resident frame re-reads
	// the store.
	resident := residentEntries(s)
	if want := []int{steps - 2, steps - 1}; !slices.Equal(resident, want) {
		t.Errorf("resident entries %v, want %v", resident, want)
	}
	before := reg.Counter("store.reads").Value()
	for _, idx := range resident {
		if _, _, err := s.Frame("run", st.EntryAt(idx).Key, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("store.reads").Value(); got != before {
		t.Errorf("resident frames re-read the store: %d -> %d", before, got)
	}
}

// residentEntries lists the entry indexes of mount 0 resident in s's
// cache, in index order, without perturbing it.
func residentEntries(s *Server) []int {
	var idx []int
	for i := 0; i < s.mounts[0].store.Len(); i++ {
		if s.cache.Contains(cacheKey{mount: 0, entry: int32(i)}) {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestCacheAdmitsALiveTail: with the cache full of frames asked for twice
// each, a frame new to the run is served but not cached until it has been
// asked for more often than the frame it displaces; after three requests
// it is resident and a fourth costs no store read.
func TestCacheAdmitsALiveTail(t *testing.T) {
	const frame = 1 << 10
	st := buildStore(t, 1, 5, nil, frame)
	s, reg := newTestServer(t, Config{CacheBytes: 4 * frame})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	get := func(ts int) {
		t.Helper()
		if _, _, err := s.Frame("run", cinemastore.Key{Time: float64(ts), Variable: "var0"}, false); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for ts := 0; ts < 4; ts++ {
			get(ts)
		}
	}
	for n := 1; n <= 3; n++ {
		get(4)
		if in := s.cache.Contains(cacheKey{entry: 4}); in != (n == 3) {
			t.Fatalf("after %d requests the new frame is resident: %v", n, in)
		}
	}
	reads := reg.Counter("store.reads").Value()
	get(4)
	if got := reg.Counter("store.reads").Value(); got != reads {
		t.Errorf("the admitted frame re-read the store")
	}
	if got := reg.Counter("cache.evictions").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestCacheAdmissionIsDeterministic: one Zipf request sequence, run on two
// fresh servers armed with -chaos seed=7,serve, leaves the same frames
// resident, costs the same store reads and writes byte-identical fault
// logs — admission depends on the requests alone, not on a per-process
// hash seed. (The breaker is disabled: its cooldown is wall-clock time.)
func TestCacheAdmissionIsDeterministic(t *testing.T) {
	const frame, steps = 512, 64
	st := buildStore(t, 1, steps, nil, frame)
	plan, err := faults.ParseSpec("seed=7,serve")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (resident []int, reads, hits int64, log string) {
		inj, err := faults.New(plan)
		if err != nil {
			t.Fatal(err)
		}
		s, reg := newTestServer(t, Config{CacheBytes: 8 * frame, BreakerThreshold: -1, Faults: inj})
		if err := s.Mount("run", st); err != nil {
			t.Fatal(err)
		}
		zipf := rand.NewZipf(rand.New(rand.NewSource(3)), 1.1, 1, steps-1)
		for i := 0; i < 2000; i++ {
			ts := zipf.Uint64()
			_, _, err := s.Frame("run", cinemastore.Key{Time: float64(ts), Variable: "var0"}, false)
			var injected *InjectedReadError
			if err != nil && !errors.As(err, &injected) {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		if err := inj.WriteLog(&b); err != nil {
			t.Fatal(err)
		}
		return residentEntries(s), reg.Counter("store.reads").Value(), reg.Counter("cache.hits").Value(), b.String()
	}
	res1, reads1, hits1, log1 := run()
	res2, reads2, hits2, log2 := run()
	t.Logf("resident %v, %d store reads, %d hits of 2000", res1, reads1, hits1)
	if !slices.Equal(res1, res2) || reads1 != reads2 || hits1 != hits2 {
		t.Errorf("two runs of one sequence differ: resident %v vs %v, store.reads %d vs %d, cache.hits %d vs %d",
			res1, res2, reads1, reads2, hits1, hits2)
	}
	if log1 != log2 || log1 == "" {
		t.Errorf("fault logs differ or are empty:\n--- run 1\n%s--- run 2\n%s", log1, log2)
	}
}

// TestConcurrentMixedLoad is the -race workout of satellite 2: hitters,
// missers, and evictions all interleaving on a deliberately tiny budget.
// Correctness here means every fetch returns the right bytes and the
// budget holds; the race detector checks the rest.
func TestConcurrentMixedLoad(t *testing.T) {
	defer leakcheck.Check(t)()
	const frame = 512
	st := buildStore(t, 2, 8, nil, frame)
	s, reg := newTestServer(t, Config{CacheBytes: 3 * frame})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				v, ts := rng.Intn(2), rng.Intn(8)
				key := cinemastore.Key{Time: float64(ts), Variable: fmt.Sprintf("var%d", v)}
				data, _, err := s.Frame("run", key, i%3 == 0)
				if err != nil || len(data) != frame || data[0] != byte(v*8+ts) {
					failures.Add(1)
				}
			}
		}(int64(w))
	}
	// Concurrent observers exercise the read side of the cache accounting.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.cache.Bytes()
				s.CacheLen()
			}
		}
	}()
	wg.Wait()
	close(done)

	if n := failures.Load(); n != 0 {
		t.Errorf("%d fetches returned wrong data", n)
	}
	if got := s.cache.Bytes(); got > 3*frame {
		t.Errorf("cache bytes %d exceed budget %d", got, 3*frame)
	}
	snap := reg.Snapshot()
	if snap.Counters["requests"] != workers*200 {
		t.Errorf("requests = %d, want %d", snap.Counters["requests"], workers*200)
	}
	if snap.Counters["errors"] != 0 {
		t.Errorf("errors = %d", snap.Counters["errors"])
	}
}

func TestMountValidation(t *testing.T) {
	st := buildStore(t, 1, 1, nil, 16)
	s, _ := newTestServer(t, Config{})
	if err := s.Mount("", st); err == nil {
		t.Error("empty mount name accepted")
	}
	if err := s.Mount("run", nil); err == nil {
		t.Error("nil store accepted")
	}
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	if err := s.Mount("run", st); err == nil {
		t.Error("duplicate mount accepted")
	}
	if got := s.Stores(); len(got) != 1 || got[0] != "run" {
		t.Errorf("Stores() = %v", got)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	cams := []cinemastore.Key{{Phi: 0.5, Theta: 0.25}}
	st := buildStore(t, 1, 3, cams, 64)
	tr := trace.New(trace.Options{})
	s, reg := newTestServer(t, Config{Tracer: tr})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.StripPrefix("/cinema", s.Handler()))
	defer ts.Close()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	if code, body, _ := get("/cinema/"); code != 200 || !strings.Contains(body, `"name": "run"`) {
		t.Errorf("listing: %d %q", code, body)
	}
	if code, body, _ := get("/cinema/run/"); code != 200 || !strings.Contains(body, `"frames": 3`) {
		t.Errorf("store info: %d %q", code, body)
	}
	code, body, _ := get("/cinema/run/index.json")
	if code != 200 || !strings.Contains(body, cinemastore.IndexType) {
		t.Errorf("index: %d %q", code, body)
	}
	entries, err := cinemastore.DecodeIndex([]byte(body))
	if err != nil || len(entries) != 3 {
		t.Fatalf("served index does not round-trip: %v (%d entries)", err, len(entries))
	}

	code, body, hdr := get("/cinema/run/frame?var=var0&time=1&phi=0.5&theta=0.25")
	if code != 200 || len(body) != 64 {
		t.Errorf("frame: %d, %d bytes", code, len(body))
	}
	if hdr.Get("Content-Type") != "image/png" || hdr.Get("X-Cinema-File") != entries[1].File {
		t.Errorf("frame headers = %v", hdr)
	}
	if code, _, _ := get("/cinema/run/file/" + entries[0].File); code != 200 {
		t.Errorf("file fetch: %d", code)
	}
	if code, _, _ := get("/cinema/run/frame?var=var0&time=7&nearest=1"); code != 200 {
		t.Errorf("nearest frame: %d", code)
	}

	// Error mapping.
	for path, want := range map[string]int{
		"/cinema/ghost/":                       404,
		"/cinema/run/frame?var=ghost":          404,
		"/cinema/run/frame?time=1":             400, // missing var
		"/cinema/run/frame?var=var0&time=x":    400,
		"/cinema/run/frame?var=var0&nearest=x": 400,
		"/cinema/run/file/absent.png":          404,
		"/cinema/run/unknown-route":            404,
	} {
		if code, _, _ := get(path); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}

	// The per-slot request spans landed on the tracer.
	tl := tr.Snapshot()
	spans := 0
	for _, lane := range tl.Lanes {
		if strings.HasPrefix(lane.Name, "serve.slot") {
			spans += len(lane.Spans)
		}
	}
	if spans == 0 {
		t.Error("no serve.request spans recorded")
	}
	if reg.Counter("requests").Value() == 0 {
		t.Error("requests counter untouched")
	}
}

// TestHTTPShedsWhenSaturated pins the overload contract: with one
// admission slot held by an in-flight request, the next request is shed
// with 503 + Retry-After, and service resumes once the slot frees.
func TestHTTPShedsWhenSaturated(t *testing.T) {
	st := buildStore(t, 1, 1, nil, 64)
	gate := make(chan struct{})
	s, reg := newTestServer(t, Config{MaxInflight: 1, RetryAfter: 2 * time.Second})
	s.testLoadGate = gate
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.StripPrefix("/cinema", s.Handler()))
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/cinema/run/frame?var=var0")
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()

	// Wait until the first request holds the only slot (blocked on the
	// store-read gate), so the shed below is deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.slots) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never claimed the slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/cinema/run/frame?var=var0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated request: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if got := reg.Counter("shed").Value(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	close(gate)
	if code := <-first; code != 200 {
		t.Errorf("gated request finished with %d, want 200", code)
	}
	// The freed slot admits traffic again.
	resp2, err := http.Get(ts.URL + "/cinema/run/frame?var=var0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("post-shed request: %d, want 200", resp2.StatusCode)
	}
	// Sheds are not errors: the error counter stays clean.
	if got := reg.Counter("errors").Value(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
}

// TestHotPathAllocations pins the serving contract the benchmark tracks:
// a cache hit allocates nothing.
func TestHotPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	st := buildStore(t, 1, 1, nil, 256)
	s, _ := newTestServer(t, Config{})
	if err := s.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	key := cinemastore.Key{Variable: "var0"}
	if _, _, err := s.Frame("run", key, false); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		nearest bool
	}{{"exact", false}, {"nearest", true}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := s.Frame("run", key, mode.nearest); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s cache hit allocates %.1f/op, want 0", mode.name, allocs)
		}
	}
}
