package intransit

import (
	"encoding/json"
	"errors"
	"fmt"
	"image/color"
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

// sample is one sample between Send and Collect. It keeps its own copy of
// the render tables, so a send or ack that fails can be re-encoded
// absolute on a fresh connection or failed over. done is set once its
// outcome is known: res, or err when no worker could take it.
type sample struct {
	seq     uint64
	simTime float64
	colors  []color.RGBA
	core    []bool // nil when the sample has no core frame
	mask    []bool // core's backing, reused across samples
	res     SampleResult
	err     error
	done    bool
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
	connected bool    // ever connected — distinguishes reconnects
	downUntil uint64  // partitioned until this sample seq
	inflight  *sample // sent on conn, its ack not yet read
}

// Client is the simulation side of the in-transit tier. Sending a sample
// and collecting its ack are two steps, so the sim computes on while the
// workers render; each connection stays stop-and-wait, because a worker's
// previous sample is collected before the next one goes to it, so at most
// one sample is in flight per worker. Not safe for concurrent use: the
// sampling loop is serial, and so is the client.
type Client struct {
	opts    Options
	workers []*workerConn
	seq     uint64
	deriver *render.SampleDeriver
	queue   []*sample // sent and not yet collected, in sequence order
	spare   []*sample // collected; their table buffers are reused

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

// Close releases every connection. Samples still in flight are abandoned,
// not waited for.
func (c *Client) Close() error {
	for _, wc := range c.workers {
		wc.inflight = nil
		c.disconnect(wc)
	}
	c.queue = nil
	return nil
}

// Send ships one sample — every rank's shard of the field plus the end
// marker — to the sample's owner and returns without waiting for the
// worker to render it. The owner's previous sample is collected first.
// Transport failures (real or injected) reconnect and resend within the
// retry budget, then fail over around the worker ring. Collect returns
// each sample's outcome in sequence order; Send itself fails only when
// the field does not derive.
func (c *Client) Send(simTime float64, field []float64) error {
	seq := c.seq
	c.seq++
	t, err := c.deriver.Derive(simTime, field)
	if err != nil {
		return err
	}
	s := c.newSample(seq, simTime, t)

	// Fault consults: exactly one per site per sample, in a fixed order,
	// so the injected sequence is deterministic in the seed no matter how
	// the network behaves.
	if f, ok := c.delaySite.Next(); ok && f.Kind == faults.KindStall {
		s.res.Stall = f.Stall
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
		c.collect(wc) // the owner's in-flight sample is not lost with the link
		wc.downUntil = seq + uint64(c.opts.PartitionWindow)
		wc.lane.Instant("transit.partition")
		c.disconnect(wc)
	}
	c.queue = append(c.queue, s)
	c.deliver(s, owner, &drop, false)
	return nil
}

// Collect returns the oldest outstanding sample's outcome, waiting for its
// ack when it is still in flight: the store entries its worker wrote, or
// ErrUnavailable when no worker could take it, which the caller degrades
// as a dropped sample.
func (c *Client) Collect() (SampleResult, error) {
	if len(c.queue) == 0 {
		return SampleResult{}, errors.New("intransit: no sample outstanding")
	}
	s := c.queue[0]
	if !s.done {
		c.collect(c.workers[s.res.Worker])
	}
	c.queue[0] = nil
	c.queue = c.queue[1:]
	res, err := s.res, s.err
	s.res = SampleResult{}
	c.spare = append(c.spare, s)
	return res, err
}

// Ready reports whether Collect would return without waiting: a sample
// is outstanding and the oldest one's outcome is known.
func (c *Client) Ready() bool { return len(c.queue) > 0 && c.queue[0].done }

// SendSample is Send followed by collecting every outstanding sample: it
// returns this sample's outcome once the worker has rendered and stored
// it.
func (c *Client) SendSample(simTime float64, field []float64) (SampleResult, error) {
	if err := c.Send(simTime, field); err != nil {
		return SampleResult{}, err
	}
	var res SampleResult
	var err error
	for len(c.queue) > 0 {
		res, err = c.Collect()
	}
	return res, err
}

// newSample copies a sample's derived tables into a recycled sample, or a
// new one.
func (c *Client) newSample(seq uint64, simTime float64, t render.SampleTables) *sample {
	var s *sample
	if n := len(c.spare); n > 0 {
		s, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		s = new(sample)
	}
	s.seq, s.simTime, s.err, s.done = seq, simTime, nil, false
	s.colors = append(s.colors[:0], t.Colors...)
	s.core = nil
	if t.Core != nil {
		s.mask = append(s.mask[:0], t.Core...)
		s.core = s.mask
	}
	return s
}

// deliver walks the ring from worker start until one takes s, collecting
// each candidate's in-flight sample before sending to it. Without wait s
// stays in flight on that worker; with wait (recovering a sample whose
// ack failed) its ack is read too. When no worker takes s, it is settled
// as ErrUnavailable.
func (c *Client) deliver(s *sample, start int, drop *bool, wait bool) {
	for i := 0; i < len(c.workers); i++ {
		wi := (start + i) % len(c.workers)
		wc := c.workers[wi]
		if s.seq < wc.downUntil {
			continue
		}
		if i > 0 {
			c.mFailovers.Inc()
		}
		c.collect(wc)
		if c.trySend(wc, s, drop, wait) != nil {
			continue
		}
		s.res.Worker = wi
		if wait {
			c.finish(s)
		} else {
			wc.inflight = s
		}
		return
	}
	s.err, s.done = ErrUnavailable, true
}

// collect reads the ack of wc's in-flight sample, if it has one. When the
// ack fails — the connection died, or the worker reported an error — the
// sample is recovered at once from its retained tables: resent absolute
// on a fresh connection within the retry budget, then failed over,
// waiting for its ack each time.
func (c *Client) collect(wc *workerConn) {
	s := wc.inflight
	if s == nil {
		return
	}
	wc.inflight = nil
	if c.awaitAck(wc, s) == nil {
		c.finish(s)
		return
	}
	c.disconnect(wc)
	drop := false
	c.deliver(s, s.res.Worker, &drop, true)
}

// finish records a delivered sample.
func (c *Client) finish(s *sample) {
	s.done = true
	c.mSamples.Inc()
	if raw := c.mRawBytes.Value(); raw > 0 {
		c.gRatio.Set(float64(c.mWireBytes.Value()) / float64(raw))
	}
}

// trySend sends s to one worker, reconnecting and resending within the
// retry budget, and with wait set reads its ack too. Any error
// invalidates the connection — after a failure the two ends cannot agree
// on delta state, so the resend goes absolute on a fresh connection.
func (c *Client) trySend(wc *workerConn, s *sample, drop *bool, wait bool) error {
	var lastErr error
	for attempt := 0; attempt <= c.opts.RetryBudget; attempt++ {
		if wc.conn == nil {
			if err := c.connect(wc); err != nil {
				lastErr = err
				continue
			}
		}
		err := c.sendOn(wc, s, drop)
		if err == nil && wait {
			err = c.awaitAck(wc, s)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		c.disconnect(wc)
	}
	return fmt.Errorf("intransit: %s: retry budget exhausted: %w", wc.addr, lastErr)
}

// sendOn performs one send attempt on a live connection, shipping the
// sample's retained tables shard by shard, then the end marker.
func (c *Client) sendOn(wc *workerConn, s *sample, drop *bool) error {
	wc.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	wc.lane.Begin("transit.send")
	defer wc.lane.End()
	for r, cells := range c.opts.Cells {
		payload, flags, rawLen := wc.senc.encode(uint32(r), 0, cells, s.colors, s.core)
		if err := wc.enc.Encode(Frame{
			Type: FrameShard, Flags: flags, Rank: uint32(r), Seq: s.seq, Payload: payload,
		}); err != nil {
			return err
		}
		s.res.RawBytes += int64(rawLen)
		s.res.WireBytes += int64(HeaderSize + len(payload))
		c.mRawBytes.Add(int64(rawLen))
		c.mWireBytes.Add(int64(HeaderSize + len(payload)))
	}
	if *drop {
		// The injected drop cuts the connection after the shards but
		// before the end marker — the worker is left with a half-staged
		// sample it must discard, and the resend must still converge.
		*drop = false
		wc.lane.Instant("transit.drop")
		return errInjectedDrop
	}
	end, err := json.Marshal(sampleEndMsg{SimTime: s.simTime})
	if err != nil {
		return err
	}
	return wc.enc.Encode(Frame{Type: FrameSampleEnd, Seq: s.seq, Payload: end})
}

// awaitAck reads s's ack off wc's connection.
func (c *Client) awaitAck(wc *workerConn, s *sample) error {
	// The deadline restarts: the sim may have computed for a while since
	// the send, and the ack may be waiting already.
	wc.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	f, err := wc.dec.Decode()
	if err != nil {
		return err
	}
	switch f.Type {
	case FrameSampleAck:
		if f.Seq != s.seq {
			return fmt.Errorf("intransit: ack for sample %d, want %d", f.Seq, s.seq)
		}
		var ack sampleAckMsg
		if err := json.Unmarshal(f.Payload, &ack); err != nil {
			return fmt.Errorf("intransit: bad sample-ack: %w", err)
		}
		s.res.Frames, s.res.Bytes, s.res.Entries = ack.Frames, ack.Bytes, ack.Entries
		return nil
	case FrameError:
		return fmt.Errorf("intransit: worker error: %s", f.Payload)
	default:
		return fmt.Errorf("intransit: unexpected %v frame awaiting ack", f.Type)
	}
}
