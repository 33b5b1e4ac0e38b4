package insituviz

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insituviz/internal/cinemaserve"
	"insituviz/internal/cinemastore"
	"insituviz/internal/leakcheck"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

// TestLiveRunDatabaseServesEndToEnd is the end-to-end proof of the
// serving subsystem: a LiveRun-produced Cinema database opens with
// cinemastore, serves through cinemaserve, and answers HTTP queries with
// the exact bytes the run wrote — with the serving telemetry composed
// into one exposition next to the run's own metrics, the way liverun's
// -http endpoint wires it.
func TestLiveRunDatabaseServesEndToEnd(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	liveReg := telemetry.NewRegistry()
	res, err := LiveRun(LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2,
		Steps:            16,
		SampleEverySteps: 8,
		OutputDir:        dir,
		ImageWidth:       64,
		ImageHeight:      32,
		RenderRanks:      2,
		OrthoViews:       2,
		Telemetry:        liveReg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The write side produced the store format directly: no conversion.
	st, err := cinemastore.Open(filepath.Join(dir, "cinema"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != res.Images {
		t.Errorf("store has %d frames, run wrote %d", st.Len(), res.Images)
	}
	// The ortho views carry real camera directions on the axes.
	view1 := 0
	for _, e := range st.Entries() {
		if e.Variable == "okubo_weiss_view1" {
			view1++
			if e.Phi == 0 {
				t.Errorf("view1 frame %s has phi 0, want the rig's camera direction", e.File)
			}
		}
	}
	if view1 == 0 {
		t.Error("no okubo_weiss_view1 frames in the store")
	}

	// Serve it the way cmd/liverun does: cinema routes plus a union
	// /metrics composing the run's registry with the server's.
	tracer := trace.New(trace.Options{})
	serveReg := telemetry.NewRegistry()
	srv := cinemaserve.NewServer(cinemaserve.Config{Telemetry: serveReg, Tracer: tracer})
	if err := srv.Mount("run", st); err != nil {
		t.Fatal(err)
	}
	union := telemetry.NewUnion().Add("", liveReg).Add("serve.", serveReg)
	mux := http.NewServeMux()
	mux.Handle("/", trace.NewHandlerFrom(union, tracer))
	mux.Handle("/cinema/", http.StripPrefix("/cinema", srv.Handler()))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// The served index round-trips through the store codec.
	code, body := get("/cinema/run/index.json")
	if code != 200 {
		t.Fatalf("index.json: %d", code)
	}
	entries, err := cinemastore.DecodeIndex(body)
	if err != nil || len(entries) != res.Images {
		t.Fatalf("served index: %v (%d entries, want %d)", err, len(entries), res.Images)
	}

	// Every frame the run wrote is fetchable byte-for-byte, twice — the
	// second pass entirely from cache.
	for pass := 0; pass < 2; pass++ {
		for _, e := range entries {
			code, body := get("/cinema/run/file/" + e.File)
			if code != 200 {
				t.Fatalf("file %s: %d", e.File, code)
			}
			disk, err := os.ReadFile(filepath.Join(dir, "cinema", e.File))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, disk) {
				t.Fatalf("served bytes for %s differ from disk", e.File)
			}
		}
	}

	// A nearest query with jittered axes snaps to a stored view frame.
	code, body = get("/cinema/run/frame?var=okubo_weiss_view1&time=1e9&phi=1.6&theta=0.05&nearest=1")
	if code != 200 || len(body) == 0 {
		t.Fatalf("nearest view query: %d, %d bytes", code, len(body))
	}

	// One exposition shows both worlds: the run's metrics un-prefixed, the
	// server's under "serve.", including the latency quantiles.
	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"counter ocean.steps ",
		"counter render.frames ",
		"counter serve.requests ",
		"counter serve.cache.hits ",
		"histogram serve.latency.ns p50 ",
		"histogram serve.latency.ns p99 ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, "counter serve.errors 0\n") == false {
		t.Errorf("serve.errors line missing or nonzero:\n%s", text)
	}

	// The cache did its job on the second pass.
	snap := serveReg.Snapshot()
	if snap.Counters["cache.hits"] < int64(res.Images) {
		t.Errorf("cache.hits = %d, want >= %d", snap.Counters["cache.hits"], res.Images)
	}
	if snap.Counters["store.reads"] != int64(res.Images) {
		t.Errorf("store.reads = %d, want %d", snap.Counters["store.reads"], res.Images)
	}
}
