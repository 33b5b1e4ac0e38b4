package intransit

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/mesh"
	"insituviz/internal/render"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
	"insituviz/internal/units"
)

// ErrUnavailable reports a sample no worker could take: every worker in
// the ring was down, partitioned, or out of retry budget. The caller
// degrades exactly as it would for a blown viz deadline — the sample's
// frames are dropped, the run continues.
var ErrUnavailable = errors.New("intransit: no viz worker available")

// errInjectedDrop marks a send the fault injector killed; the retry loop
// treats it like any transport error (reconnect, resend).
var errInjectedDrop = errors.New("intransit: injected send drop")

// Options configures the sending side of the in-transit tier.
type Options struct {
	// Workers lists the viz worker addresses. Samples are owned
	// round-robin by sequence number; an unreachable owner fails over
	// around the ring.
	Workers []string
	// Codec names the on-wire codec to negotiate (default flate).
	Codec string
	// Config is the run configuration announced in the handshake; the
	// worker mirrors its mesh, partition, and cameras from it.
	Config RunConfig
	// Mesh is the simulation mesh. The client derives each sample's
	// render-exact tables (color LUT, eddy-core selection) on it with the
	// render.SampleDeriver the in-process path runs, so the worker's frames
	// come out byte-identical.
	Mesh *mesh.Mesh
	// Cells is the per-rank owned-cell list of the client's partition —
	// the sharding map. Must have Config.RenderRanks entries.
	Cells [][]int
	// Telemetry, when non-nil, receives the transit.* counters and the
	// compression-ratio gauge.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, gets one "transit.worker<N>" lane per
	// connection with a span per sample send.
	Tracer *trace.Tracer
	// Faults, when non-nil, arms the transport's chaos sites —
	// "transit.drop" (the send is cut mid-sample and resent on a fresh
	// connection), "transit.delay" (a stall accounted to the sample, not
	// a failure), and "transit.partition" (the owner is unreachable for
	// PartitionWindow samples and the sample fails over) — each consulted
	// once per sample, so the fault sequence is deterministic in the
	// plan's seed regardless of network timing.
	Faults *faults.Injector
	// RetryBudget bounds reconnect-and-resend attempts per sample per
	// worker (default 8).
	RetryBudget int
	// PartitionWindow is how many samples an injected partition keeps a
	// worker unreachable (default 2).
	PartitionWindow int
	// DialTimeout and IOTimeout bound the transport's blocking calls
	// (defaults 5s and 30s).
	DialTimeout time.Duration
	IOTimeout   time.Duration
}

func (o *Options) applyDefaults() {
	if o.Codec == "" {
		o.Codec = DefaultCodec
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 8
	}
	if o.PartitionWindow == 0 {
		o.PartitionWindow = 2
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.IOTimeout == 0 {
		o.IOTimeout = 30 * time.Second
	}
}

// SampleResult is one delivered sample's accounting.
type SampleResult struct {
	// Frames and Bytes are what the worker rendered and stored.
	Frames int
	Bytes  int64
	// RawBytes is the float64 field volume the sample's shards stand in
	// for (8 bytes per cell — what a naive transport would move);
	// WireBytes is what actually hit the socket, headers included. Their
	// ratio is what the render-exact encoding plus delta+codec saved.
	// Resends count — they are real traffic.
	RawBytes  int64
	WireBytes int64
	// Stall is injected "transit.delay" time, accounted like an I/O
	// stall.
	Stall units.Seconds
	// Worker is the index of the worker that took the sample.
	Worker int
	// Entries are the store records the worker wrote; the caller adopts
	// them into its own index.
	Entries []cinemastore.Entry
}

// workerConn is the client's state for one worker: the connection (nil
// when down) and the per-connection encoder stack. The shard encoder's
// delta state lives and dies with the connection, mirroring the worker's
// per-connection decoder, so both ends always agree on what "previous
// sample" means.
type workerConn struct {
	addr      string
	conn      net.Conn
	enc       *Encoder
	dec       *Decoder
	senc      *shardEncoder
	lane      *trace.Lane
	connected bool   // ever connected — distinguishes reconnects
	downUntil uint64 // partitioned until this sample seq
}

// Client is the simulation side of the in-transit tier. Not safe for
// concurrent use: the sampling loop is serial, and so is the client.
type Client struct {
	opts    Options
	workers []*workerConn
	seq     uint64
	deriver *render.SampleDeriver
	tables  render.SampleTables // the sample being sent

	dropSite  *faults.Site
	delaySite *faults.Site
	partSite  *faults.Site

	mSamples    *telemetry.Counter
	mReconnects *telemetry.Counter
	mFailovers  *telemetry.Counter
	mDrops      *telemetry.Counter
	mDelays     *telemetry.Counter
	mPartitions *telemetry.Counter
	mRawBytes   *telemetry.Counter
	mWireBytes  *telemetry.Counter
	gRatio      *telemetry.FloatGauge
}

// Dial validates the options and connects to the workers. At least one
// worker must be reachable and accept the handshake; the rest may join
// later via reconnect.
func Dial(opts Options) (*Client, error) {
	opts.applyDefaults()
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("intransit: no worker addresses")
	}
	if err := opts.Config.validate(); err != nil {
		return nil, err
	}
	if opts.Mesh == nil {
		return nil, fmt.Errorf("intransit: Options.Mesh is required")
	}
	if len(opts.Cells) != opts.Config.RenderRanks {
		return nil, fmt.Errorf("intransit: %d cell lists for %d render ranks",
			len(opts.Cells), opts.Config.RenderRanks)
	}
	if _, err := NewCodec(opts.Codec); err != nil {
		return nil, err
	}
	c := &Client{
		opts:        opts,
		deriver:     render.NewSampleDeriver(opts.Mesh, opts.Config.Fields[0], opts.Config.EddyCoreImages),
		dropSite:    opts.Faults.Site("transit.drop"),
		delaySite:   opts.Faults.Site("transit.delay"),
		partSite:    opts.Faults.Site("transit.partition"),
		mSamples:    opts.Telemetry.Counter("transit.samples"),
		mReconnects: opts.Telemetry.Counter("transit.reconnects"),
		mFailovers:  opts.Telemetry.Counter("transit.failovers"),
		mDrops:      opts.Telemetry.Counter("transit.faults.drop"),
		mDelays:     opts.Telemetry.Counter("transit.faults.delay"),
		mPartitions: opts.Telemetry.Counter("transit.faults.partition"),
		mRawBytes:   opts.Telemetry.Counter("transit.bytes.raw"),
		mWireBytes:  opts.Telemetry.Counter("transit.bytes.wire"),
		gRatio:      opts.Telemetry.FloatGauge("transit.compression.ratio"),
	}
	for i, addr := range opts.Workers {
		c.workers = append(c.workers, &workerConn{
			addr: addr,
			lane: opts.Tracer.Lane(fmt.Sprintf("transit.worker%d", i)),
		})
	}
	var lastErr error
	ok := 0
	for _, wc := range c.workers {
		if err := c.connect(wc); err != nil {
			lastErr = err
			continue
		}
		ok++
	}
	if ok == 0 {
		c.Close()
		return nil, fmt.Errorf("intransit: no worker reachable: %w", lastErr)
	}
	return c, nil
}

// connect dials and handshakes one worker. Counted as a reconnect when
// the worker had been connected before — the resume path's signature.
func (c *Client) connect(wc *workerConn) error {
	conn, err := net.DialTimeout("tcp", wc.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("intransit: dial %s: %w", wc.addr, err)
	}
	conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	enc, dec := NewEncoder(conn), NewDecoder(conn)
	hello, err := json.Marshal(helloMsg{Codec: c.opts.Codec, Config: c.opts.Config})
	if err != nil {
		conn.Close()
		return err
	}
	if err := enc.Encode(Frame{Type: FrameHello, Payload: hello}); err != nil {
		conn.Close()
		return err
	}
	f, err := dec.Decode()
	if err != nil {
		conn.Close()
		return fmt.Errorf("intransit: hello to %s: %w", wc.addr, err)
	}
	if f.Type == FrameError {
		conn.Close()
		return fmt.Errorf("intransit: %s rejected hello: %s", wc.addr, f.Payload)
	}
	if f.Type != FrameHelloAck {
		conn.Close()
		return fmt.Errorf("intransit: %s answered hello with %v", wc.addr, f.Type)
	}
	var ack helloAckMsg
	if err := json.Unmarshal(f.Payload, &ack); err != nil {
		conn.Close()
		return fmt.Errorf("intransit: bad hello-ack from %s: %w", wc.addr, err)
	}
	if ack.Codec != c.opts.Codec {
		conn.Close()
		return fmt.Errorf("intransit: %s negotiated codec %q, want %q", wc.addr, ack.Codec, c.opts.Codec)
	}
	codec, err := NewCodec(c.opts.Codec)
	if err != nil {
		conn.Close()
		return err
	}
	wc.conn, wc.enc, wc.dec = conn, enc, dec
	wc.senc = newShardEncoder(codec)
	if wc.connected {
		c.mReconnects.Inc()
		wc.lane.Instant("transit.reconnect")
	}
	wc.connected = true
	return nil
}

// disconnect tears a worker connection down. The delta state goes with
// it: the next send on a fresh connection is absolute on both ends.
func (c *Client) disconnect(wc *workerConn) {
	if wc.conn != nil {
		wc.conn.Close()
	}
	wc.conn, wc.enc, wc.dec, wc.senc = nil, nil, nil, nil
}

// Close releases every connection.
func (c *Client) Close() error {
	for _, wc := range c.workers {
		c.disconnect(wc)
	}
	return nil
}

// SendSample ships one sample — every rank's shard of the field plus the
// end marker — to the sample's owner, waits for the rendered-and-stored
// ack, and returns the accounting. Transport failures (real or injected)
// reconnect and resend within the retry budget, then fail over around the
// worker ring; only a fully exhausted ring surfaces as ErrUnavailable.
func (c *Client) SendSample(simTime float64, field []float64) (SampleResult, error) {
	seq := c.seq
	c.seq++
	var err error
	if c.tables, err = c.deriver.Derive(simTime, field); err != nil {
		return SampleResult{}, err
	}

	// Fault consults: exactly one per site per sample, in a fixed order,
	// so the injected sequence is deterministic in the seed no matter how
	// the network behaves.
	var stall units.Seconds
	if f, ok := c.delaySite.Next(); ok && f.Kind == faults.KindStall {
		stall = f.Stall
		c.mDelays.Inc()
	}
	drop := false
	if f, ok := c.dropSite.Next(); ok && f.Kind == faults.KindError {
		drop = true
		c.mDrops.Inc()
	}
	owner := int(seq % uint64(len(c.workers)))
	if f, ok := c.partSite.Next(); ok && f.Kind == faults.KindError {
		c.mPartitions.Inc()
		wc := c.workers[owner]
		wc.downUntil = seq + uint64(c.opts.PartitionWindow)
		wc.lane.Instant("transit.partition")
		c.disconnect(wc)
	}

	for i := 0; i < len(c.workers); i++ {
		wi := (owner + i) % len(c.workers)
		wc := c.workers[wi]
		if seq < wc.downUntil {
			continue
		}
		if i > 0 {
			c.mFailovers.Inc()
		}
		res, err := c.trySend(wc, seq, simTime, &drop)
		if err == nil {
			res.Stall = stall
			res.Worker = wi
			c.mSamples.Inc()
			if raw := c.mRawBytes.Value(); raw > 0 {
				c.gRatio.Set(float64(c.mWireBytes.Value()) / float64(raw))
			}
			return res, nil
		}
	}
	return SampleResult{}, ErrUnavailable
}

// trySend delivers one sample to one worker, reconnecting and resending
// within the retry budget. Any error invalidates the connection — after
// a failure the two ends cannot agree on delta state, so the resend goes
// absolute on a fresh connection.
func (c *Client) trySend(wc *workerConn, seq uint64, simTime float64, drop *bool) (SampleResult, error) {
	var res SampleResult
	var lastErr error
	for attempt := 0; attempt <= c.opts.RetryBudget; attempt++ {
		if wc.conn == nil {
			if err := c.connect(wc); err != nil {
				lastErr = err
				continue
			}
		}
		r, err := c.sendOn(wc, seq, simTime, drop)
		res.RawBytes += r.RawBytes
		res.WireBytes += r.WireBytes
		if err == nil {
			res.Frames, res.Bytes, res.Entries = r.Frames, r.Bytes, r.Entries
			return res, nil
		}
		lastErr = err
		c.disconnect(wc)
	}
	return res, fmt.Errorf("intransit: %s: retry budget exhausted: %w", wc.addr, lastErr)
}

// sendOn performs one send attempt on a live connection, shipping the
// sample's derived tables shard by shard.
func (c *Client) sendOn(wc *workerConn, seq uint64, simTime float64, drop *bool) (SampleResult, error) {
	var res SampleResult
	wc.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	wc.lane.Begin("transit.send")
	defer wc.lane.End()
	for r, cells := range c.opts.Cells {
		payload, flags, rawLen := wc.senc.encode(uint32(r), 0, cells, c.tables.Colors, c.tables.Core)
		if err := wc.enc.Encode(Frame{
			Type: FrameShard, Flags: flags, Rank: uint32(r), Seq: seq, Payload: payload,
		}); err != nil {
			return res, err
		}
		res.RawBytes += int64(rawLen)
		res.WireBytes += int64(HeaderSize + len(payload))
		c.mRawBytes.Add(int64(rawLen))
		c.mWireBytes.Add(int64(HeaderSize + len(payload)))
	}
	if *drop {
		// The injected drop cuts the connection after the shards but
		// before the end marker — the worker is left with a half-staged
		// sample it must discard, and the resend must still converge.
		*drop = false
		wc.lane.Instant("transit.drop")
		return res, errInjectedDrop
	}
	end, err := json.Marshal(sampleEndMsg{SimTime: simTime})
	if err != nil {
		return res, err
	}
	if err := wc.enc.Encode(Frame{Type: FrameSampleEnd, Seq: seq, Payload: end}); err != nil {
		return res, err
	}
	f, err := wc.dec.Decode()
	if err != nil {
		return res, err
	}
	switch f.Type {
	case FrameSampleAck:
		if f.Seq != seq {
			return res, fmt.Errorf("intransit: ack for sample %d, want %d", f.Seq, seq)
		}
		var ack sampleAckMsg
		if err := json.Unmarshal(f.Payload, &ack); err != nil {
			return res, fmt.Errorf("intransit: bad sample-ack: %w", err)
		}
		res.Frames, res.Bytes, res.Entries = ack.Frames, ack.Bytes, ack.Entries
		return res, nil
	case FrameError:
		return res, fmt.Errorf("intransit: worker error: %s", f.Payload)
	default:
		return res, fmt.Errorf("intransit: unexpected %v frame awaiting ack", f.Type)
	}
}
