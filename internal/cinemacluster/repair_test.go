package cinemacluster

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"insituviz/internal/cinemaserve"
	"insituviz/internal/telemetry"
)

// copyDir copies every regular file of src into a fresh temp dir — one
// independent replica of a store.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	listing, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range listing {
		if de.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestGatewayRepairsCorruptReplica gives every node its own replica of
// the store (no shared storage), rots one frame on one replica, and
// asserts the gateway: fails over to a healthy replica without any
// client-visible error, repairs the rotten file in place with the
// verified bytes, and that the damaged node heals itself on its next
// read of the repaired frame.
func TestGatewayRepairsCorruptReplica(t *testing.T) {
	src := buildStoreDir(t, 1, 3, 256)

	// Three nodes, three independent replicas, node caches disabled so
	// every read touches the replica's disk.
	const n = 3
	dirs := make([]string, n)
	nodes := make([]*node, n)
	repairDirs := map[string]string{}
	greg := telemetry.NewRegistry()
	gcfg := Config{Replicas: 2, CacheBytes: -1, Telemetry: greg}
	for i := 0; i < n; i++ {
		dirs[i] = copyDir(t, src)
		nodes[i] = newNode(t, dirs[i], cinemaserve.Config{CacheBytes: -1})
		gcfg.Peers = append(gcfg.Peers, nodes[i].http.URL)
		repairDirs["node"+string(rune('0'+i))+"/run"] = dirs[i]
	}
	gcfg.RepairDirs = repairDirs
	gw, err := NewGateway(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{dir: src, nodes: nodes, gw: gw, reg: greg}
	t.Cleanup(func() {
		gw.Close()
		for _, nd := range nodes {
			nd.http.Close()
		}
	})

	e := nodes[0].st.EntryAt(0)
	orig, err := os.ReadFile(filepath.Join(src, e.File))
	if err != nil {
		t.Fatal(err)
	}

	// Discover which replica serves this frame.
	w, body := c.get(t, frameQuery(e))
	if w.Code != http.StatusOK || !bytes.Equal(body, orig) {
		t.Fatalf("clean fetch: status %d, %d bytes", w.Code, len(body))
	}
	victim := w.Header().Get("X-Cinema-Node")
	if victim == "" {
		t.Fatal("gateway did not name the serving node")
	}
	vi := int(victim[len(victim)-1] - '0')

	// Rot the victim's replica of the frame.
	path := filepath.Join(dirs[vi], e.File)
	bad := append([]byte(nil), orig...)
	bad[len(bad)/2] ^= 0x80
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	// The client sees only a clean 200, served by a different replica.
	w, body = c.get(t, frameQuery(e))
	if w.Code != http.StatusOK || !bytes.Equal(body, orig) {
		t.Fatalf("fetch over rotten replica: status %d, right bytes %v", w.Code, bytes.Equal(body, orig))
	}
	if server := w.Header().Get("X-Cinema-Node"); server == victim || server == "" {
		t.Fatalf("served by %q, want a different healthy node than %q", server, victim)
	}
	if got := greg.Counter("corrupt").Value(); got != 1 {
		t.Errorf("cluster corrupt counter = %d, want 1", got)
	}
	if got := greg.Counter("repairs").Value(); got != 1 {
		t.Errorf("cluster repairs counter = %d, want 1", got)
	}
	if got := greg.Counter("repair.errors").Value(); got != 0 {
		t.Errorf("cluster repair.errors = %d, want 0", got)
	}
	if got := nodes[vi].reg.Counter("corrupt").Value(); got != 1 {
		t.Errorf("victim serve.corrupt = %d, want 1", got)
	}
	// Integrity is not availability: the victim's breaker stays closed on
	// both sides.
	if state := gw.NodeState(victim); state != cinemaserve.BreakerClosed {
		t.Errorf("gateway breaker for %s = %d, want closed", victim, state)
	}
	if state := nodes[vi].srv.BreakerState("run"); state != cinemaserve.BreakerClosed {
		t.Errorf("victim store breaker = %d, want closed", state)
	}

	// The replica on disk was rewritten with the verified bytes.
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, orig) {
		t.Error("victim replica not repaired to the original bytes")
	}

	// And the victim heals without coordination: its next direct read
	// verifies clean and lifts the in-memory quarantine.
	data, _, err := nodes[vi].srv.Frame("run", e.Key, false)
	if err != nil || !bytes.Equal(data, orig) {
		t.Fatalf("victim read after repair: %v", err)
	}
	if q := nodes[vi].srv.QuarantinedFiles("run"); len(q) != 0 {
		t.Errorf("victim quarantine not lifted: %v", q)
	}
}

// TestGatewayCorruptReplicaWithoutRepairDir still fails over cleanly but
// leaves the replica alone when no -repair-dir mapping covers it.
func TestGatewayCorruptReplicaWithoutRepairDir(t *testing.T) {
	src := buildStoreDir(t, 1, 2, 128)
	const n = 2
	dirs := make([]string, n)
	nodes := make([]*node, n)
	greg := telemetry.NewRegistry()
	gcfg := Config{Replicas: 2, CacheBytes: -1, Telemetry: greg}
	for i := 0; i < n; i++ {
		dirs[i] = copyDir(t, src)
		nodes[i] = newNode(t, dirs[i], cinemaserve.Config{CacheBytes: -1})
		gcfg.Peers = append(gcfg.Peers, nodes[i].http.URL)
	}
	gw, err := NewGateway(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{dir: src, nodes: nodes, gw: gw, reg: greg}
	t.Cleanup(func() {
		gw.Close()
		for _, nd := range nodes {
			nd.http.Close()
		}
	})

	e := nodes[0].st.EntryAt(0)
	orig, err := os.ReadFile(filepath.Join(src, e.File))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := c.get(t, frameQuery(e))
	victim := w.Header().Get("X-Cinema-Node")
	vi := int(victim[len(victim)-1] - '0')
	path := filepath.Join(dirs[vi], e.File)
	bad := append([]byte(nil), orig...)
	bad[0] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	w, body := c.get(t, frameQuery(e))
	if w.Code != http.StatusOK || !bytes.Equal(body, orig) {
		t.Fatalf("failover fetch: status %d", w.Code)
	}
	if got := greg.Counter("repairs").Value(); got != 0 {
		t.Errorf("repairs = %d, want 0 without a repair mapping", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, bad) {
		t.Error("replica rewritten despite missing repair mapping")
	}
}
