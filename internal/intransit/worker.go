package intransit

import (
	"encoding/json"
	"errors"
	"fmt"
	"image/color"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"

	"insituviz/internal/cinemastore"
	"insituviz/internal/mesh"
	"insituviz/internal/render"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

// RunConfig is the render configuration a client announces in its Hello
// and a worker mirrors: both sides derive the identical mesh, partition,
// and camera rig from it, so only the shard values need to travel.
type RunConfig struct {
	// MeshSubdivisions is the icosphere resolution (10*4^n+2 cells).
	MeshSubdivisions int `json:"mesh_subdivisions"`
	// ImageWidth and ImageHeight size the equirectangular frames; ortho
	// views are ImageHeight square, as in the in-process path.
	ImageWidth  int `json:"image_width"`
	ImageHeight int `json:"image_height"`
	// RenderRanks is the sort-last compositing width; shards arrive one
	// per rank.
	RenderRanks int `json:"render_ranks"`
	// OrthoViews is how many cameras of the standard rig each sample is
	// additionally rendered from (0 disables).
	OrthoViews int `json:"ortho_views"`
	// EddyCoreImages adds the thresholded eddy-core frame per sample.
	EddyCoreImages bool `json:"eddy_core_images,omitempty"`
	// Fields names the shipped fields; frame headers carry indexes into
	// this table. The render pipeline is the Okubo-Weiss one, so exactly
	// one field is supported today.
	Fields []string `json:"fields"`
}

func (c RunConfig) validate() error {
	if c.MeshSubdivisions < 0 || c.ImageWidth < 1 || c.ImageHeight < 1 {
		return fmt.Errorf("intransit: bad run config %+v", c)
	}
	if c.RenderRanks < 1 {
		return fmt.Errorf("intransit: run config needs at least one render rank")
	}
	if len(c.Fields) != 1 {
		return fmt.Errorf("intransit: run config must ship exactly one field, got %v", c.Fields)
	}
	return nil
}

// The JSON message bodies riding on control frames.
type helloMsg struct {
	Codec  string    `json:"codec"`
	Config RunConfig `json:"config"`
}

type helloAckMsg struct {
	Codec   string `json:"codec"`
	LastSeq uint64 `json:"last_seq"`
}

type sampleEndMsg struct {
	SimTime float64 `json:"sim_time"`
}

type sampleAckMsg struct {
	Seq     uint64              `json:"seq"`
	Frames  int                 `json:"frames"`
	Bytes   int64               `json:"bytes"`
	Entries []cinemastore.Entry `json:"entries"`
}

// WorkerConfig configures a viz worker.
type WorkerConfig struct {
	// OutDir is the Cinema database directory frames are written into —
	// the same directory the sim commits its index over, so the sim can
	// adopt the worker's entries and publish one store.
	OutDir string
	// RenderWorkers caps the rasterizer fan-out (0 uses GOMAXPROCS).
	RenderWorkers int
	// Telemetry, when non-nil, receives the worker's transit.recv.*
	// counters and the render.* counters of its store writer.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, gets a "transit.serve" lane with one span per
	// rendered sample.
	Tracer *trace.Tracer
}

// Worker is the receiving end of the in-transit tier: it accepts client
// connections, reassembles per-rank field shards into full samples,
// renders them through the render.SampleRenderer the in-process path uses,
// writes the frames into the shared store directory through a
// render.PipelinedCinemaWriter, and acks the store entries back once they
// are durable. Samples are deduplicated by sequence number, so a resend
// after a reconnect is re-acked from cache instead of re-rendered.
type Worker struct {
	ln  net.Listener
	cfg WorkerConfig

	mu        sync.Mutex
	run       *workerRun
	processed map[uint64][]byte // seq -> cached SampleAck payload
	lastSeq   uint64
	conns     map[net.Conn]bool

	closed atomic.Bool
	wg     sync.WaitGroup

	mConns   *telemetry.Counter
	mSamples *telemetry.Counter
	mReacks  *telemetry.Counter
	mWire    *telemetry.Counter
	mRaw     *telemetry.Counter
	mErrors  *telemetry.Counter
	lane     *trace.Lane
}

// NewWorker wraps an open listener. The caller owns starting Serve.
func NewWorker(ln net.Listener, cfg WorkerConfig) (*Worker, error) {
	if ln == nil {
		return nil, fmt.Errorf("intransit: nil listener")
	}
	if cfg.OutDir == "" {
		return nil, fmt.Errorf("intransit: WorkerConfig.OutDir is required")
	}
	w := &Worker{
		ln:        ln,
		cfg:       cfg,
		processed: map[uint64][]byte{},
		conns:     map[net.Conn]bool{},
		mConns:    cfg.Telemetry.Counter("transit.recv.conns"),
		mSamples:  cfg.Telemetry.Counter("transit.recv.samples"),
		mReacks:   cfg.Telemetry.Counter("transit.recv.reacks"),
		mWire:     cfg.Telemetry.Counter("transit.recv.bytes.wire"),
		mRaw:      cfg.Telemetry.Counter("transit.recv.bytes.raw"),
		mErrors:   cfg.Telemetry.Counter("transit.recv.errors"),
		lane:      cfg.Tracer.Lane("transit.serve"),
	}
	return w, nil
}

// Addr returns the listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts and serves connections until Close. Always returns nil
// after a Close-initiated shutdown.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			if w.closed.Load() {
				return nil
			}
			return fmt.Errorf("intransit: accept: %w", err)
		}
		w.mu.Lock()
		if w.closed.Load() {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = true
		w.mu.Unlock()
		w.mConns.Inc()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.serveConn(conn)
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for the
// handlers to drain.
func (w *Worker) Close() error {
	w.closed.Store(true)
	err := w.ln.Close()
	w.mu.Lock()
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	// No handler is left to submit frames: stop the store writer's stages.
	w.mu.Lock()
	if w.run != nil {
		w.run.pw.Close()
	}
	w.mu.Unlock()
	return err
}

// workerRun is the run in progress — the shared sample renderer and the
// three-stage store writer behind it — built at the first Hello (the run
// configuration arrives there) and shared, mutex-serialized, by every
// connection.
type workerRun struct {
	cfg    RunConfig
	nCells int
	sr     *render.SampleRenderer
	db     *render.CinemaDB
	pw     *render.PipelinedCinemaWriter
}

// writerDepth is the depth of the worker's PipelinedCinemaWriter. A sample
// is acked at its flush barrier, so a deeper queue only lets its last
// renders run further ahead of the fsyncs, for more staging frames: on the
// benchmark's transit_tcp shape depth 2 cost 0.9 MB more resident memory
// per worker than depth 1 and no wall time.
const writerDepth = 1

// errWorkerClosing fails a sample that reaches a closing worker. It starts
// no render, so the client's resend elsewhere is the only one.
var errWorkerClosing = errors.New("intransit: worker closing")

func newWorkerRun(rc RunConfig, wc WorkerConfig) (*workerRun, error) {
	if err := rc.validate(); err != nil {
		return nil, err
	}
	msh, err := mesh.NewIcosphere(rc.MeshSubdivisions, mesh.EarthRadius)
	if err != nil {
		return nil, err
	}
	run := &workerRun{cfg: rc, nCells: msh.NCells()}
	run.sr, err = render.NewSampleRenderer(msh, render.SampleConfig{
		Field:      rc.Fields[0],
		Width:      rc.ImageWidth,
		Height:     rc.ImageHeight,
		Ranks:      rc.RenderRanks,
		OrthoViews: rc.OrthoViews,
		Cores:      rc.EddyCoreImages,
		Workers:    wc.RenderWorkers,
	})
	if err != nil {
		return nil, err
	}
	if run.db, err = render.NewCinemaDB(wc.OutDir); err != nil {
		return nil, err
	}
	run.db.SetTelemetry(wc.Telemetry)
	run.pw = render.NewPipelinedCinemaWriter(run.db, writerDepth)
	return run, nil
}

// handleSample renders (or re-acks) one complete sample under the worker
// mutex and returns the encoded SampleAck payload.
func (w *Worker) handleSample(seq uint64, simTime float64, colors []color.RGBA, core []bool) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if payload, ok := w.processed[seq]; ok {
		// A resend of a sample we already rendered: the previous ack was
		// lost with its connection. Re-ack from cache; re-rendering would
		// collide with the already-written store entries.
		w.mReacks.Inc()
		return payload, nil
	}
	if w.closed.Load() {
		return nil, errWorkerClosing
	}
	// The shipped tables go through the same SampleRenderer and the same
	// three-stage writer an inproc run uses, so the stored frames are that
	// run's bytes. The ack waits for the writer's flush barrier: every
	// entry it carries, in emit order, is written, fsynced and renamed.
	run := w.run
	w.lane.Begin("transit.render")
	err := run.sr.Render(render.SampleTables{Colors: colors, Core: core}, simTime, run.pw.Submit)
	entries, bytes, ferr := run.pw.Flush()
	w.lane.End()
	if ferr != nil {
		// The writer's first error is sticky. It fails this sample's ack
		// only: the next sample starts on a fresh writer.
		run.pw.Close()
		run.pw = render.NewPipelinedCinemaWriter(run.db, writerDepth)
	}
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(sampleAckMsg{Seq: seq, Frames: len(entries), Bytes: int64(bytes), Entries: entries})
	if err != nil {
		return nil, err
	}
	w.processed[seq] = payload
	if seq > w.lastSeq {
		w.lastSeq = seq
	}
	w.mSamples.Inc()
	return payload, nil
}

// connSession is one connection's receive state: its decoder and shard
// decoder (delta state is per-connection — a reconnect starts absolute on
// both ends) and the staging tables for the sample being assembled.
type connSession struct {
	enc     *Encoder
	dec     *Decoder
	sdec    *shardDecoder
	colors  []color.RGBA
	core    []bool
	hasCore bool // whether the staging sample carries a core mask
	got     []bool
	gotN    int
	curSeq  uint64
}

// fail sends a best-effort error frame and abandons the connection.
func (w *Worker) fail(s *connSession, format string, args ...any) {
	w.mErrors.Inc()
	msg := fmt.Sprintf(format, args...)
	s.enc.Encode(Frame{Type: FrameError, Payload: []byte(msg)})
}

func (w *Worker) serveConn(conn net.Conn) {
	defer conn.Close()
	s := &connSession{enc: NewEncoder(conn), dec: NewDecoder(conn)}

	// Handshake: the Hello carries the codec and the run configuration.
	f, err := s.dec.Decode()
	if err != nil || f.Type != FrameHello {
		w.fail(s, "intransit: expected hello, got %v (%v)", f.Type, err)
		return
	}
	var hello helloMsg
	if err := json.Unmarshal(f.Payload, &hello); err != nil {
		w.fail(s, "intransit: bad hello: %v", err)
		return
	}
	codec, err := NewCodec(hello.Codec)
	if err != nil {
		w.fail(s, "%v", err)
		return
	}
	w.mu.Lock()
	if w.run == nil {
		w.run, err = newWorkerRun(hello.Config, w.cfg)
	} else if !reflect.DeepEqual(w.run.cfg, hello.Config) {
		err = fmt.Errorf("intransit: hello config %+v conflicts with the run in progress", hello.Config)
	}
	run, lastSeq := w.run, w.lastSeq
	w.mu.Unlock()
	if err != nil {
		w.fail(s, "%v", err)
		return
	}
	s.sdec = newShardDecoder(codec)
	rankCells := run.sr.Cells()
	s.colors = make([]color.RGBA, run.nCells)
	s.core = make([]bool, run.nCells)
	s.got = make([]bool, len(rankCells))
	ackPayload, _ := json.Marshal(helloAckMsg{Codec: codec.Name(), LastSeq: lastSeq})
	if err := s.enc.Encode(Frame{Type: FrameHelloAck, Payload: ackPayload}); err != nil {
		return
	}

	for {
		f, err := s.dec.Decode()
		if err != nil {
			// io.EOF at a frame boundary is a clean client close; anything
			// else is a framing or transport error. Either way the stream
			// is done — the client resumes on a fresh connection.
			if err != io.EOF {
				w.mErrors.Inc()
			}
			return
		}
		switch f.Type {
		case FrameShard:
			if s.gotN == 0 {
				s.curSeq = f.Seq
			} else if f.Seq != s.curSeq {
				w.fail(s, "intransit: shard for sample %d while sample %d is staging", f.Seq, s.curSeq)
				return
			}
			if int(f.Rank) >= len(rankCells) {
				w.fail(s, "intransit: shard for rank %d of %d", f.Rank, len(rankCells))
				return
			}
			if f.Field != 0 {
				w.fail(s, "intransit: unknown field id %d", f.Field)
				return
			}
			if s.got[f.Rank] {
				w.fail(s, "intransit: duplicate shard for rank %d of sample %d", f.Rank, f.Seq)
				return
			}
			shardCore := f.Flags&FlagCore != 0
			if s.gotN == 0 {
				s.hasCore = shardCore
			} else if shardCore != s.hasCore {
				w.fail(s, "intransit: rank %d shard core flag disagrees within sample %d", f.Rank, f.Seq)
				return
			}
			cells := rankCells[f.Rank]
			v, err := s.sdec.decode(f.Rank, f.Field, f.Flags, f.Payload, len(cells))
			if err != nil {
				w.fail(s, "%v", err)
				return
			}
			for i, ci := range cells {
				s.colors[ci] = color.RGBA{R: v.r[i], G: v.g[i], B: v.b[i], A: 255}
				if shardCore {
					s.core[ci] = v.coreBit(i)
				}
			}
			s.got[f.Rank] = true
			s.gotN++
			w.mWire.Add(int64(HeaderSize + len(f.Payload)))
			w.mRaw.Add(int64(8 * len(cells)))
		case FrameSampleEnd:
			var end sampleEndMsg
			if err := json.Unmarshal(f.Payload, &end); err != nil {
				w.fail(s, "intransit: bad sample-end: %v", err)
				return
			}
			w.mu.Lock()
			_, resend := w.processed[f.Seq]
			w.mu.Unlock()
			if !resend && s.gotN != len(s.got) {
				w.fail(s, "intransit: sample %d ended with %d of %d shards", f.Seq, s.gotN, len(s.got))
				return
			}
			var core []bool
			if s.hasCore {
				core = s.core
			}
			payload, err := w.handleSample(f.Seq, end.SimTime, s.colors, core)
			if err != nil {
				w.fail(s, "%v", err)
				return
			}
			clear(s.got)
			s.gotN = 0
			if err := s.enc.Encode(Frame{Type: FrameSampleAck, Seq: f.Seq, Payload: payload}); err != nil {
				return
			}
		default:
			w.fail(s, "intransit: unexpected %v frame", f.Type)
			return
		}
	}
}
