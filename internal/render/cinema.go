package render

import (
	"bytes"
	"fmt"
	"image"
	"image/png"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/telemetry"
	"insituviz/internal/units"
)

// EncodePNG encodes img as PNG and returns the bytes. PNG is what Cinema
// image databases store; its size is what the in-situ pipeline commits to
// disk in place of raw data. The returned slice is freshly allocated;
// per-frame encoding loops should hold a PNGEncoder instead.
func EncodePNG(img image.Image) ([]byte, error) {
	var enc PNGEncoder
	data, err := enc.Encode(img)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// PNGEncoder encodes images to PNG reusing its output buffer and the
// stdlib encoder's internal state (filter rows, zlib writer) across frames,
// removing the dominant per-image allocations of a Cinema write loop. The
// zero value is ready to use. Not safe for concurrent use.
type PNGEncoder struct {
	enc  png.Encoder
	buf  bytes.Buffer
	ebuf *png.EncoderBuffer
}

// Get returns the retained encoder state (png.EncoderBufferPool).
func (e *PNGEncoder) Get() *png.EncoderBuffer { return e.ebuf }

// Put retains the encoder state for the next frame (png.EncoderBufferPool).
func (e *PNGEncoder) Put(b *png.EncoderBuffer) { e.ebuf = b }

// Encode encodes img and returns the PNG bytes. The returned slice aliases
// the encoder's internal buffer and is valid only until the next Encode
// call; callers that retain it must copy.
func (e *PNGEncoder) Encode(img image.Image) ([]byte, error) {
	if img == nil {
		return nil, fmt.Errorf("render: nil image")
	}
	e.enc.BufferPool = e
	e.buf.Reset()
	if err := e.enc.Encode(&e.buf, img); err != nil {
		return nil, fmt.Errorf("render: png encode: %w", err)
	}
	return e.buf.Bytes(), nil
}

// CinemaDB is the write side of a ParaView-style Cinema image database: a
// directory of small pre-rendered images plus a JSON index over the
// (time, camera, field) axes (Ahrens et al., "An Image-based Approach to
// Extreme Scale In Situ Visualization and Analysis"). The in-situ
// pipeline writes one of these instead of raw netCDF dumps.
//
// Storage is delegated to the durable cinemastore format: every frame and
// the committed index are written atomically (temp file, fsync, rename),
// so a crash mid-run or a concurrent reader — the query server tailing a
// live run — observes a committed database, never a torn one. The
// resulting directory opens directly with cinemastore.Open and serves
// through cinemaserve.
type CinemaDB struct {
	w   *cinemastore.Writer
	enc PNGEncoder // reused across AddImageEntry calls

	// Metric handles (nil without SetTelemetry; nil handles are no-ops).
	mFrames     *telemetry.Counter
	mBytes      *telemetry.Counter
	mFrameBytes *telemetry.Histogram
}

// FrameSizeBuckets are the upper bounds (bytes) of the
// render.frame.bytes histogram: the paper's Cinema images are a few KB to
// a few hundred KB, so the buckets are decade-ish steps across that range.
var FrameSizeBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// SetTelemetry registers the database's metrics — render.frames,
// render.encoded.bytes, and the render.frame.bytes size histogram — in
// reg. A nil registry detaches the instrumentation.
func (db *CinemaDB) SetTelemetry(reg *telemetry.Registry) {
	db.mFrames = reg.Counter("render.frames")
	db.mBytes = reg.Counter("render.encoded.bytes")
	db.mFrameBytes = reg.Histogram("render.frame.bytes", FrameSizeBuckets)
}

// SetFaults arms the underlying store writer's "cinema.commit" fault
// site: an injected torn fault makes WriteIndex leave a corrupt index
// prefix on disk — returning *cinemastore.TornCommitError — instead of
// committing. A nil injector disarms.
func (db *CinemaDB) SetFaults(in *faults.Injector) { db.w.SetFaults(in) }

// NewCinemaDB creates (or reuses) the database directory.
func NewCinemaDB(dir string) (*CinemaDB, error) {
	if dir == "" {
		return nil, fmt.Errorf("render: empty cinema directory")
	}
	w, err := cinemastore.Create(dir)
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	return &CinemaDB{w: w}, nil
}

// AddImageAt encodes img and stores it under the full axis tuple: the
// simulated time, the camera direction (phi azimuth, theta elevation,
// radians), and the field name. The frame file lands atomically; the
// entry becomes visible to readers at the next WriteIndex. Duplicate axis
// tuples are rejected.
func (db *CinemaDB) AddImageAt(img image.Image, simTime, phi, theta float64, field string) (units.Bytes, error) {
	e, err := db.AddImageEntry(img, simTime, phi, theta, field)
	if err != nil {
		return 0, err
	}
	return units.Bytes(e.Bytes), nil
}

// AddImageEntry is AddImageAt returning the full store entry — the
// in-transit workers ship these records back to the sim so it can adopt
// them into its own index.
func (db *CinemaDB) AddImageEntry(img image.Image, simTime, phi, theta float64, field string) (cinemastore.Entry, error) {
	if img == nil {
		return cinemastore.Entry{}, fmt.Errorf("render: nil image")
	}
	if field == "" {
		return cinemastore.Entry{}, fmt.Errorf("render: empty field name")
	}
	// The encoder's buffer is reused frame to frame; the bytes are written
	// to disk before the next Encode, so no copy is needed.
	data, err := db.enc.Encode(img)
	if err != nil {
		return cinemastore.Entry{}, err
	}
	key := cinemastore.Key{Time: simTime, Phi: phi, Theta: theta, Variable: field}
	e, err := db.w.Put(key, data)
	if err != nil {
		return cinemastore.Entry{}, fmt.Errorf("render: write image: %w", err)
	}
	db.mFrames.Inc()
	db.mBytes.Add(e.Bytes)
	db.mFrameBytes.Observe(float64(e.Bytes))
	return e, nil
}

// Adopt folds a frame entry written by another process (an in-transit
// viz worker sharing this database directory) into the index, counting
// its bytes as if this writer had stored it.
func (db *CinemaDB) Adopt(e cinemastore.Entry) error {
	if err := db.w.Adopt(e); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	db.mFrames.Inc()
	db.mBytes.Add(e.Bytes)
	db.mFrameBytes.Observe(float64(e.Bytes))
	return nil
}

// Close releases the provenance ledger's manifest.log descriptor, which the
// first WriteIndex opened. Call it after the last WriteIndex; closing twice
// is harmless.
func (db *CinemaDB) Close() error { return db.w.CloseLedger() }

// WriteIndex atomically commits the info.json database index and returns
// its size. It may be called repeatedly — a live run can republish after
// every sample, and a concurrent reader always observes a committed
// index.
func (db *CinemaDB) WriteIndex() (units.Bytes, error) {
	n, err := db.w.Commit()
	if err != nil {
		return 0, fmt.Errorf("render: %w", err)
	}
	return units.Bytes(n), nil
}
