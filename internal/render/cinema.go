package render

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"

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
//
// The frame format is chosen from the frame itself: an *image.RGBA whose
// pixels are all opaque and take at most 256 distinct colours — every
// flat-shaded frame of a mesh of up to 255 cells — is written as an 8-bit
// (or narrower) index-colour PNG at png.BestSpeed: one byte per pixel and
// no filter pass instead of three bytes through five filters. Anything else
// takes the stdlib truecolour path at its default level, byte for byte what
// png.Encoder{} writes. Both decode to the same pixels.
type PNGEncoder struct {
	buf bytes.Buffer
	rgb pngState // truecolour, default compression
	idx pngState // index-colour, png.BestSpeed
	pal palettizer
}

// pngState is one stdlib encoder with its retained buffers. The zlib writer
// inside is tied to one compression level, so each level keeps its own.
type pngState struct {
	enc  png.Encoder
	ebuf *png.EncoderBuffer
}

func (s *pngState) Get() *png.EncoderBuffer  { return s.ebuf }
func (s *pngState) Put(b *png.EncoderBuffer) { s.ebuf = b }

func (s *pngState) encode(w io.Writer, img image.Image, level png.CompressionLevel) error {
	s.enc.BufferPool = s
	s.enc.CompressionLevel = level
	return s.enc.Encode(w, img)
}

// Encode encodes img and returns the PNG bytes. The returned slice aliases
// the encoder's internal buffer and is valid only until the next Encode
// call; callers that retain it must copy.
func (e *PNGEncoder) Encode(img image.Image) ([]byte, error) {
	e.buf.Reset()
	if err := e.encodeTo(&e.buf, img); err != nil {
		return nil, err
	}
	return e.buf.Bytes(), nil
}

// encodeTo appends img's PNG encoding to w.
func (e *PNGEncoder) encodeTo(w io.Writer, img image.Image) error {
	if img == nil {
		return fmt.Errorf("render: nil image")
	}
	var err error
	if rgba, ok := img.(*image.RGBA); ok && e.pal.palettize(rgba) {
		err = e.idx.encode(w, &e.pal.img, png.BestSpeed)
	} else {
		err = e.rgb.encode(w, img, png.DefaultCompression)
	}
	if err != nil {
		return fmt.Errorf("render: png encode: %w", err)
	}
	return nil
}

// maxBoxed bounds the palettizer's cache of boxed palette entries. A run's
// frames draw from one colormap LUT plus a background, a few hundred values;
// the bound only stops an adversarial frame stream growing the cache.
const maxBoxed = 4096

// palettizer rewrites an opaque, at most 256-colour RGBA frame as an
// image.Paletted in one pass. Palette order is first appearance in scan
// order, so the output is a function of the frame's pixels alone.
type palettizer struct {
	img image.Paletted // Pix and Palette are reused frame to frame

	// Open-addressed colour → index table, four slots per possible colour.
	// Keys are little-endian RGBA words; an opaque pixel's is never zero,
	// which marks an empty slot.
	keys [1024]uint32
	slot [1024]uint8

	// image/png's PLTE writer passes every palette entry through
	// color.NRGBAModel.Convert, which boxes a fresh value for anything but
	// a color.NRGBA. Entries are therefore kept as already-boxed NRGBA
	// values and reused across frames: zero allocations in steady state.
	boxed map[uint32]color.Color
}

// palettize fills p.img from src and reports whether src qualified: every
// pixel opaque and no more than 256 distinct colours.
func (p *palettizer) palettize(src *image.RGBA) bool {
	w, h := src.Rect.Dx(), src.Rect.Dy()
	if w <= 0 || h <= 0 {
		return false
	}
	if cap(p.img.Pix) < w*h {
		p.img.Pix = make([]uint8, w*h)
	}
	p.img.Pix, p.img.Stride, p.img.Rect = p.img.Pix[:w*h], w, src.Rect
	clear(p.keys[:])

	var colours [256]uint32
	n := 0
	var last uint32
	var lastIdx uint8
	for y := 0; y < h; y++ {
		row := src.Pix[y*src.Stride:][:4*w]
		out := p.img.Pix[y*w:][:w]
		for x := range out {
			k := binary.LittleEndian.Uint32(row[4*x:])
			if k != last || n == 0 {
				if k>>24 != 0xff {
					return false
				}
				s := k * 0x9E3779B1 >> 22
				for p.keys[s] != k {
					if p.keys[s] == 0 {
						if n == len(colours) {
							return false
						}
						p.keys[s], p.slot[s] = k, uint8(n)
						colours[n] = k
						n++
						break
					}
					s = (s + 1) % uint32(len(p.keys))
				}
				last, lastIdx = k, p.slot[s]
			}
			out[x] = lastIdx
		}
	}

	if p.boxed == nil || len(p.boxed)+n > maxBoxed {
		p.boxed = make(map[uint32]color.Color)
	}
	p.img.Palette = p.img.Palette[:0]
	for _, k := range colours[:n] {
		c, ok := p.boxed[k]
		if !ok {
			c = color.NRGBA{R: uint8(k), G: uint8(k >> 8), B: uint8(k >> 16), A: 0xff}
			p.boxed[k] = c
		}
		p.img.Palette = append(p.img.Palette, c)
	}
	return true
}

// CinemaDB is the write side of a ParaView-style Cinema image database: a
// directory of small pre-rendered images plus a JSON index over the
// (time, camera, field) axes (Ahrens et al., "An Image-based Approach to
// Extreme Scale In Situ Visualization and Analysis"). The in-situ
// pipeline writes one of these instead of raw netCDF dumps.
//
// Storage is delegated to the durable cinemastore format: every frame and
// the committed index are written atomically (temp file, rename), and
// WriteIndex fsyncs the frames written since the previous commit before
// the index that names them, so a crash mid-run or a concurrent reader —
// the query server tailing a live run — observes a committed database
// whose frames verify, never a torn one. The
// resulting directory opens directly with cinemastore.Open and serves
// through cinemaserve. Frames reach it through a PipelinedCinemaWriter,
// or by Adopt when another process wrote them.
type CinemaDB struct {
	w   *cinemastore.Writer
	enc PNGEncoder // the pipelined writer's encode stage

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
// render.encoded.bytes, the render.frame.bytes size histogram, and the
// store's cinema.commit.synced — in reg. A nil registry detaches the
// instrumentation.
func (db *CinemaDB) SetTelemetry(reg *telemetry.Registry) {
	db.w.SetTelemetry(reg)
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

// putFrame stores one encoded frame under its full axis tuple — the
// simulated time, the camera direction (phi azimuth, theta elevation,
// radians), and the field name — and counts it. The frame file lands
// atomically; the entry becomes visible to readers at the next
// WriteIndex. Duplicate axis tuples are rejected. It touches only the
// store writer and the metric handles, never the encoder, so the
// pipelined writer may run it beside an Encode of the next frame.
func (db *CinemaDB) putFrame(key cinemastore.Key, data []byte) (cinemastore.Entry, error) {
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
// its size, after fsyncing every frame put or adopted since the previous
// commit: it is the frames' durability boundary. It may be called
// repeatedly — a live run can republish after every sample, and a
// concurrent reader always observes a committed index.
func (db *CinemaDB) WriteIndex() (units.Bytes, error) {
	n, err := db.w.Commit()
	if err != nil {
		return 0, fmt.Errorf("render: %w", err)
	}
	return units.Bytes(n), nil
}
