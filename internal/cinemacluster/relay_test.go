package cinemacluster

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"insituviz/internal/cinemaserve"
	"insituviz/internal/leakcheck"
	"insituviz/internal/telemetry"
)

// TestGatewayRelayAllocatesFrameOnce guards the relay read: a peer body
// with a declared length lands in one buffer of exactly that length, so
// the whole get of a 64 KiB frame (client and in-process peer together)
// allocates little more than the frame. Reading it with io.ReadAll grew a
// slice from 512 B and allocated 4.46x the frame.
func TestGatewayRelayAllocatesFrameOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	defer leakcheck.Check(t)()
	const frame = 64 << 10
	data := bytes.Repeat([]byte{7}, frame)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cinemaserve.WriteFrame(w, data, "f.png", "")
	}))
	defer peer.Close()
	gw, err := NewGateway(Config{Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	get := func() []byte {
		body, status, _, err := gw.get(context.Background(), peer.URL+"/f.png")
		if err != nil || status != http.StatusOK || !bytes.Equal(body, data) {
			t.Fatalf("get: status %d, err %v, %d bytes", status, err, len(body))
		}
		return body
	}
	if body := get(); cap(body) != frame { // also dials, so the measured gets reuse the connection
		t.Errorf("relayed frame holds cap %d for len %d", cap(body), len(body))
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per get of a %d-byte frame (%.2fx)", per, frame, per/frame)
	if per > 1.25*frame {
		t.Errorf("a get of a %d-byte frame allocates %.0f bytes (%.2fx), want <= 1.25x", frame, per, per/frame)
	}
}

// TestGatewayReusesPeerConnections: concurrent relays to one node keep
// the connections they opened. Five bursts of eight concurrent misses
// (each one read) close none of them; the default
// transport kept two idle per host, closed the rest after every burst and
// dialled 35. The first burst may dial a few more than eight: the
// transport hands a returned connection to a request whose own dial is
// still in flight, and the request that returned it dials again. The
// node's count of new connections and the gateway's peer.dials agree.
func TestGatewayReusesPeerConnections(t *testing.T) {
	defer leakcheck.Check(t)()
	const bursts, width = 5, 8
	dir := buildStoreDir(t, 4, 5, 256) // 40 frames: every request a distinct miss
	var opened, closed atomic.Int64
	nd := startNode(t, dir, cinemaserve.Config{}, func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	})
	defer nd.http.Close()
	reg := telemetry.NewRegistry()
	gw, err := NewGateway(Config{Peers: []string{nd.http.URL}, Replicas: 1, CacheBytes: -1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	entries := nd.st.Entries()
	if len(entries) != bursts*width {
		t.Fatalf("store has %d frames, want %d", len(entries), bursts*width)
	}
	h := gw.Handler()
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		codes := make([]int, width)
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := httptest.NewRequest(http.MethodGet, frameQuery(entries[b*width+i]), nil)
				r.URL.Path = strings.TrimPrefix(r.URL.Path, "/cinema")
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				codes[i] = w.Code
			}(i)
		}
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("burst %d request %d: status %d", b, i, code)
			}
		}
	}
	dials, n, c := reg.Counter("peer.dials").Value(), opened.Load(), closed.Load()
	t.Logf("%d bursts of %d concurrent misses: %d connections opened, %d closed", bursts, width, n, c)
	if c != 0 {
		t.Errorf("%d peer connections closed between bursts, want 0", c)
	}
	if n > 2*width {
		t.Errorf("%d connections opened for %d concurrent relays, want <= %d", n, width, 2*width)
	}
	if dials != n {
		t.Errorf("gateway peer.dials = %d, node accepted %d connections", dials, n)
	}
}
