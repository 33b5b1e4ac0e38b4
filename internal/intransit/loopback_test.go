package intransit

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insituviz/internal/faults"
	"insituviz/internal/leakcheck"
	"insituviz/internal/mesh"
	"insituviz/internal/partition"
	"insituviz/internal/render"
	"insituviz/internal/telemetry"
)

// testRun is one loopback fixture: n workers on real TCP listeners, all
// writing into the same store directory, plus everything a client needs
// to talk to them.
type testRun struct {
	t       *testing.T
	cfg     RunConfig
	msh     *mesh.Mesh
	cells   [][]int
	dir     string
	workers []*Worker
	addrs   []string
	served  []chan error
}

func testConfig() RunConfig {
	return RunConfig{
		MeshSubdivisions: 1,
		ImageWidth:       32,
		ImageHeight:      16,
		RenderRanks:      3,
		OrthoViews:       1,
		EddyCoreImages:   true,
		Fields:           []string{"okubo_weiss"},
	}
}

func newTestRun(t *testing.T, n int) *testRun {
	t.Helper()
	cfg := testConfig()
	msh, err := mesh.NewIcosphere(cfg.MeshSubdivisions, mesh.EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.New(msh, cfg.RenderRanks)
	if err != nil {
		t.Fatal(err)
	}
	tr := &testRun{t: t, cfg: cfg, msh: msh, dir: t.TempDir()}
	tr.cells = make([][]int, cfg.RenderRanks)
	for r := range tr.cells {
		if tr.cells[r], err = part.Cells(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		tr.startWorker(i)
	}
	return tr
}

// startWorker launches worker i. With a previous worker at that slot, it
// rebinds the same address — the restart-on-same-port path.
func (tr *testRun) startWorker(i int) {
	tr.t.Helper()
	addr := "127.0.0.1:0"
	if i < len(tr.addrs) {
		addr = tr.addrs[i]
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		tr.t.Fatal(err)
	}
	w, err := NewWorker(ln, WorkerConfig{OutDir: tr.dir, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		tr.t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	if i < len(tr.addrs) {
		tr.workers[i], tr.served[i] = w, served
		return
	}
	tr.workers = append(tr.workers, w)
	tr.addrs = append(tr.addrs, ln.Addr().String())
	tr.served = append(tr.served, served)
}

func (tr *testRun) close() {
	tr.t.Helper()
	for i, w := range tr.workers {
		if err := w.Close(); err != nil {
			tr.t.Errorf("worker %d close: %v", i, err)
		}
		if err := <-tr.served[i]; err != nil {
			tr.t.Errorf("worker %d serve: %v", i, err)
		}
	}
}

func (tr *testRun) dial(opts Options) *Client {
	tr.t.Helper()
	opts.Workers = tr.addrs
	opts.Config = tr.cfg
	opts.Mesh = tr.msh
	opts.Cells = tr.cells
	c, err := Dial(opts)
	if err != nil {
		tr.t.Fatal(err)
	}
	return c
}

// sendAll drives nSamples through the client and returns the total
// frames acked.
func sendAll(t *testing.T, c *Client, msh *mesh.Mesh, nSamples int) int {
	t.Helper()
	frames := 0
	field := make([]float64, msh.NCells())
	for s := 0; s < nSamples; s++ {
		for i := range field {
			field[i] = 1e-9 * float64((i*7+s*13)%101-50)
		}
		res, err := c.SendSample(float64(s), field)
		if err != nil {
			t.Fatalf("sample %d: %v", s, err)
		}
		if res.Frames == 0 || len(res.Entries) != res.Frames {
			t.Fatalf("sample %d: %d frames, %d entries", s, res.Frames, len(res.Entries))
		}
		if res.WireBytes == 0 || res.RawBytes == 0 {
			t.Fatalf("sample %d: empty byte accounting %+v", s, res)
		}
		frames += res.Frames
	}
	return frames
}

func TestLoopbackDelivery(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := telemetry.NewRegistry()
	tr := newTestRun(t, 2)
	defer tr.close()
	c := tr.dial(Options{Telemetry: reg})
	defer c.Close()

	const nSamples = 6
	frames := sendAll(t, c, tr.msh, nSamples)
	if frames == 0 {
		t.Fatal("no frames delivered")
	}
	if got := reg.Counter("transit.samples").Value(); got != nSamples {
		t.Errorf("transit.samples = %d, want %d", got, nSamples)
	}
	// Every frame the workers wrote exists on disk under its entry name.
	files, err := os.ReadDir(tr.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != frames {
		t.Errorf("%d files in store dir, %d frames acked", len(files), frames)
	}
	// Compression on the wire is live: ratio gauge set and below 1.
	ratio := reg.FloatGauge("transit.compression.ratio").Value()
	if ratio <= 0 || ratio >= 1 {
		t.Errorf("compression ratio %v, want in (0, 1)", ratio)
	}
	// Both workers took samples: round-robin ownership.
	for i, w := range tr.workers {
		if got := w.cfg.Telemetry.Counter("transit.recv.samples").Value(); got == 0 {
			t.Errorf("worker %d served no samples", i)
		}
	}
}

// TestLoopbackInjectedFaults runs the transit chaos profile over real
// sockets: drops force reconnect-and-resend, partitions force failover,
// and every sample must still be delivered exactly once.
func TestLoopbackInjectedFaults(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := telemetry.NewRegistry()
	tr := newTestRun(t, 2)
	defer tr.close()

	plan, err := faults.Profile("transit", 11)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.dial(Options{Telemetry: reg, Faults: inj})
	defer c.Close()

	const nSamples = 8
	sendAll(t, c, tr.msh, nSamples)

	if got := reg.Counter("transit.faults.drop").Value(); got == 0 {
		t.Error("transit profile injected no drops over 8 samples")
	}
	if got := reg.Counter("transit.reconnects").Value(); got == 0 {
		t.Error("drops did not force a reconnect")
	}
	if got := reg.Counter("transit.faults.partition").Value(); got == 0 {
		t.Error("transit profile injected no partition")
	}
	if got := reg.Counter("transit.failovers").Value(); got == 0 {
		t.Error("partition did not force a failover")
	}
	if got := reg.Counter("transit.samples").Value(); got != nSamples {
		t.Errorf("transit.samples = %d, want %d — chaos must not lose samples", got, nSamples)
	}
	// Sample delivery is exactly-once at the store: every written frame
	// is distinct, so the total file count matches the dedup'd renders
	// across both workers.
	var rendered int64
	for _, w := range tr.workers {
		rendered += w.cfg.Telemetry.Counter("transit.recv.samples").Value()
	}
	if rendered != nSamples {
		t.Errorf("workers rendered %d samples, want %d (resends must re-ack, not re-render)", rendered, nSamples)
	}
}

// TestLoopbackWorkerRestart kills one worker mid-run and restarts it on
// the same port — the CI smoke scenario. The client must ride through on
// failover and reconnect, with zero client-visible errors.
func TestLoopbackWorkerRestart(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := telemetry.NewRegistry()
	tr := newTestRun(t, 2)
	defer tr.close()
	c := tr.dial(Options{Telemetry: reg})
	defer c.Close()

	field := make([]float64, tr.msh.NCells())
	send := func(s int) SampleResult {
		t.Helper()
		for i := range field {
			field[i] = 1e-9 * float64((i*7+s*13)%101-50)
		}
		res, err := c.SendSample(float64(s), field)
		if err != nil {
			t.Fatalf("sample %d: %v", s, err)
		}
		return res
	}

	send(0)
	send(1)
	// Kill worker 0 hard, then restart it on the same port. Sample 2 is
	// owner-0: the send fails over or reconnects, and must not error.
	if err := tr.workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-tr.served[0]; err != nil {
		t.Fatal(err)
	}
	tr.startWorker(0)
	for s := 2; s < 6; s++ {
		send(s)
	}
	if got := reg.Counter("transit.samples").Value(); got != 6 {
		t.Errorf("transit.samples = %d, want 6", got)
	}
	if reg.Counter("transit.reconnects").Value() == 0 {
		t.Error("restart forced no reconnect")
	}
}

// TestLoopbackInFlightWorkerLoss closes worker 0 while sample 0 is in
// flight on it — sent, not yet acked — then sends sample 1. Sample 0 must
// be recovered from the client's retained tables and delivered exactly
// once, and both results must come back in sequence order.
func TestLoopbackInFlightWorkerLoss(t *testing.T) {
	defer leakcheck.Check(t)()
	reg := telemetry.NewRegistry()
	tr := newTestRun(t, 2)
	defer tr.close()
	c := tr.dial(Options{Telemetry: reg, RetryBudget: 1})
	defer c.Close()
	field := make([]float64, tr.msh.NCells())
	for i := range field {
		field[i] = 1e-9 * float64(i%101-50)
	}

	// Worker 0's lock is held from before the send until Close has begun,
	// and a closing worker starts no render, so sample 0 cannot be rendered
	// on worker 0 whatever the timing.
	w0 := tr.workers[0]
	w0.mu.Lock()
	if err := c.Send(0, field); err != nil {
		w0.mu.Unlock()
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- w0.Close() }()
	for !w0.closed.Load() {
		time.Sleep(time.Millisecond)
	}
	w0.mu.Unlock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-tr.served[0]; err != nil {
		t.Fatal(err)
	}
	// A fresh worker takes the slot (and the port), so the recovered
	// sample may be resent there or fail over to worker 1.
	tr.startWorker(0)

	if err := c.Send(1, field); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		res, err := c.Collect()
		if err != nil {
			t.Fatalf("sample %d: %v", s, err)
		}
		if len(res.Entries) == 0 || res.Entries[0].Time != float64(s) {
			t.Fatalf("result %d carries entries %v, want sample %d's", s, res.Entries, s)
		}
	}
	var rendered int64
	for _, w := range append([]*Worker{w0}, tr.workers...) {
		rendered += w.cfg.Telemetry.Counter("transit.recv.samples").Value()
	}
	if rendered != 2 {
		t.Errorf("workers rendered %d samples, want 2: the in-flight sample must be delivered exactly once", rendered)
	}
	if got := reg.Counter("transit.samples").Value(); got != 2 {
		t.Errorf("transit.samples = %d, want 2", got)
	}
}

// TestLoopbackWorkerWriterRecovers pins that a store error fails only its
// own sample: a worker whose store rejects one sample (every frame's axis
// tuple is already stored) still renders and acks the next.
func TestLoopbackWorkerWriterRecovers(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := newTestRun(t, 1)
	defer tr.close()
	c := tr.dial(Options{RetryBudget: 1})
	defer c.Close()
	field := make([]float64, tr.msh.NCells())
	for i := range field {
		field[i] = 1e-9 * float64(i%101-50)
	}
	if _, err := c.SendSample(1, field); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendSample(1, field); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("duplicate sample: err = %v, want ErrUnavailable", err)
	}
	res, err := c.SendSample(2, field)
	if err != nil {
		t.Fatalf("sample after a rejected one: %v", err)
	}
	if res.Frames == 0 || len(res.Entries) != res.Frames {
		t.Fatalf("sample after a rejected one: %d frames, %d entries", res.Frames, len(res.Entries))
	}
}

// TestLoopbackCloseInFlight closes a client with a sample in flight on
// every worker: Close abandons them without waiting out IOTimeout, and
// neither side leaks a goroutine.
func TestLoopbackCloseInFlight(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := newTestRun(t, 2)
	defer tr.close()
	c := tr.dial(Options{IOTimeout: time.Minute})
	field := make([]float64, tr.msh.NCells())
	for s := 0; s < 2; s++ {
		if err := c.Send(float64(s), field); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Close with samples in flight took %v", d)
	}
}

// TestLoopbackDedupReack pins the resume contract directly: resending an
// already-rendered sample on a fresh connection yields the identical ack
// without re-rendering.
func TestLoopbackDedupReack(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := newTestRun(t, 1)
	defer tr.close()

	reg1 := telemetry.NewRegistry()
	c1 := tr.dial(Options{Telemetry: reg1})
	field := make([]float64, tr.msh.NCells())
	for i := range field {
		field[i] = 1e-9 * float64(i%101-50)
	}
	res1, err := c1.SendSample(0.5, field)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// A second client replays seq 0 — the crash-recovery shape.
	reg2 := telemetry.NewRegistry()
	c2 := tr.dial(Options{Telemetry: reg2})
	defer c2.Close()
	res2, err := c2.SendSample(0.5, field)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res1.Entries) != fmt.Sprint(res2.Entries) {
		t.Errorf("re-acked entries differ:\n%v\n%v", res1.Entries, res2.Entries)
	}
	wreg := tr.workers[0].cfg.Telemetry
	if got := wreg.Counter("transit.recv.samples").Value(); got != 1 {
		t.Errorf("worker rendered %d samples, want 1", got)
	}
	if got := wreg.Counter("transit.recv.reacks").Value(); got != 1 {
		t.Errorf("transit.recv.reacks = %d, want 1", got)
	}
}

// TestLoopbackConfigConflict pins that a worker rejects a client whose
// run configuration disagrees with the run in progress.
func TestLoopbackConfigConflict(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := newTestRun(t, 1)
	defer tr.close()
	c := tr.dial(Options{})
	field := make([]float64, tr.msh.NCells())
	if _, err := c.SendSample(0, field); err != nil {
		t.Fatal(err)
	}
	c.Close()

	bad := tr.cfg
	bad.ImageWidth *= 2
	msh2 := tr.msh
	_, err := Dial(Options{Workers: tr.addrs, Config: bad, Mesh: msh2, Cells: tr.cells, RetryBudget: 1})
	if err == nil {
		t.Fatal("conflicting config accepted")
	}
	if !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("error %q does not name the config conflict", err)
	}
}

// TestOrthoViewsOutOfRange: a run config asking for fewer ortho views
// than none, or more than the camera rig holds, is refused by the client's
// Dial and by a worker's Hello alike, with an error naming the field, so
// no side renders a clamped view count the sim did not ask for.
func TestOrthoViewsOutOfRange(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := newTestRun(t, 1)
	defer tr.close()
	rig := len(render.DefaultCameraSet())
	for _, n := range []int{0, rig} {
		ok := tr.cfg
		ok.OrthoViews = n
		if err := ok.validate(); err != nil {
			t.Errorf("OrthoViews %d refused: %v", n, err)
		}
	}
	for _, n := range []int{-3, -1, rig + 1, 9} {
		bad := tr.cfg
		bad.OrthoViews = n
		_, err := Dial(Options{Workers: tr.addrs, Config: bad, Mesh: tr.msh, Cells: tr.cells, RetryBudget: 1})
		if err == nil || !strings.Contains(err.Error(), "OrthoViews") {
			t.Errorf("Dial with OrthoViews %d: error %v, want one naming OrthoViews", n, err)
		}

		// The worker checks a Hello on its own: a sim that skips the
		// client-side check still gets an error frame back.
		conn, err := net.Dial("tcp", tr.addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(helloMsg{Codec: "raw", Config: bad})
		if err != nil {
			t.Fatal(err)
		}
		if err := NewEncoder(conn).Encode(Frame{Type: FrameHello, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := NewDecoder(conn).Decode()
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameError || !strings.Contains(string(f.Payload), "OrthoViews") {
			t.Errorf("worker answered a Hello with OrthoViews %d by %v %q, want an error naming OrthoViews", n, f.Type, f.Payload)
		}
	}
}

// TestLoopbackUnavailable exhausts the ring: with every worker down and
// the budget bounded, SendSample must surface ErrUnavailable rather than
// hang or lose the error.
func TestLoopbackUnavailable(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := newTestRun(t, 1)
	c := tr.dial(Options{RetryBudget: 1})
	defer c.Close()
	field := make([]float64, tr.msh.NCells())
	if _, err := c.SendSample(0, field); err != nil {
		t.Fatal(err)
	}
	tr.close()
	if _, err := c.SendSample(1, field); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// TestWorkerStoreFilesAreEntries cross-checks that the ack entries name
// exactly the files on disk.
func TestWorkerStoreFilesAreEntries(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := newTestRun(t, 1)
	defer tr.close()
	c := tr.dial(Options{})
	defer c.Close()
	field := make([]float64, tr.msh.NCells())
	for i := range field {
		field[i] = 1e-9 * float64(i%13-6)
	}
	res, err := c.SendSample(2.5, field)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Entries {
		fi, err := os.Stat(filepath.Join(tr.dir, e.File))
		if err != nil {
			t.Errorf("acked entry missing on disk: %v", err)
			continue
		}
		if fi.Size() != e.Bytes {
			t.Errorf("%s: %d bytes on disk, entry says %d", e.File, fi.Size(), e.Bytes)
		}
	}
}
