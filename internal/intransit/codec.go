package intransit

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"image/color"
	"io"
)

// Codec is the negotiable general-purpose compressor applied to a shard
// payload after the delta transform. The client
// names its codec in the Hello; the worker echoes the agreed name in the
// HelloAck, so both ends of a connection always speak the same codec.
//
// Encode appends the encoded form of src to dst[:0] and returns the
// result; Decode is its inverse, and fails once the decoded form would
// pass limit bytes, so a small payload cannot inflate into a large
// buffer. Implementations reuse internal state across calls and are not
// safe for concurrent use — each connection owns its own instances.
type Codec interface {
	Name() string
	Encode(dst, src []byte) []byte
	Decode(dst, src []byte, limit int) ([]byte, error)
}

// ErrBadShard marks a shard payload the decoder rejects: it does not
// decode, decodes to the wrong length for its rank, sets a flag or a
// mask bit the encoder never sets, or is a delta without a matching
// previous record.
var ErrBadShard = errors.New("intransit: malformed shard")

// DefaultCodec is the codec used when none is requested.
const DefaultCodec = "flate"

// CodecNames lists the built-in codecs.
func CodecNames() []string { return []string{"flate", "raw"} }

// NewCodec returns a fresh instance of a named codec.
func NewCodec(name string) (Codec, error) {
	switch name {
	case "", DefaultCodec:
		return &flateCodec{}, nil
	case "raw":
		return rawCodec{}, nil
	}
	return nil, fmt.Errorf("intransit: unknown codec %q (want one of %v)", name, CodecNames())
}

// rawCodec is the identity codec: shards travel transformed but
// uncompressed. Useful as a baseline when measuring what compression
// saves.
type rawCodec struct{}

func (rawCodec) Name() string { return "raw" }

func (rawCodec) Encode(dst, src []byte) []byte { return append(dst[:0], src...) }

func (rawCodec) Decode(dst, src []byte, limit int) ([]byte, error) {
	if len(src) > limit {
		return nil, fmt.Errorf("intransit: raw payload of %d bytes exceeds %d", len(src), limit)
	}
	return append(dst[:0], src...), nil
}

// sliceWriter appends writes to a byte slice — the zero-allocation sink
// the flate writer compresses into.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// flateCodec is DEFLATE at BestSpeed, the stdlib's fast general-purpose
// codec. The writer and reader are reset and reused across calls, so the
// steady-state cost is the compression itself, not allocation.
type flateCodec struct {
	w    *flate.Writer
	sink sliceWriter
	r    io.ReadCloser
	src  bytes.Reader
}

func (c *flateCodec) Name() string { return DefaultCodec }

func (c *flateCodec) Encode(dst, src []byte) []byte {
	c.sink.b = dst[:0]
	if c.w == nil {
		// BestSpeed: the wire competes with rendering for time, and the
		// planar record layout and delta transform already did the
		// entropy shaping.
		c.w, _ = flate.NewWriter(&c.sink, flate.BestSpeed)
	} else {
		c.w.Reset(&c.sink)
	}
	// Writes to sliceWriter cannot fail.
	c.w.Write(src)
	c.w.Close()
	return c.sink.b
}

func (c *flateCodec) Decode(dst, src []byte, limit int) ([]byte, error) {
	c.src.Reset(src)
	if c.r == nil {
		c.r = flate.NewReader(&c.src)
	} else if err := c.r.(flate.Resetter).Reset(&c.src, nil); err != nil {
		return nil, fmt.Errorf("intransit: flate reset: %w", err)
	}
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		// Read at most one byte past limit: enough to tell an overrun.
		n, err := c.r.Read(dst[len(dst):min(cap(dst), limit+1)])
		dst = dst[:len(dst)+n]
		if len(dst) > limit {
			return nil, fmt.Errorf("intransit: flate payload inflates past %d bytes", limit)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return nil, fmt.Errorf("intransit: flate decode: %w", err)
		}
	}
}

// grow returns b resized to n bytes, reallocating only when the capacity
// is short.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// shardKey keys per-(rank, field) delta state.
func shardKey(rank, field uint32) uint64 { return uint64(rank)<<32 | uint64(field) }

// maskLen is the byte length of an n-cell selection-mask bitset.
func maskLen(n int) int { return (n + 7) / 8 }

// shardView is one decoded shard record: the rank's owned cells in the
// order of its partition cell list, as planar render-exact data. The
// committed images depend on the field only through the per-cell color
// the renderer derives and the eddy-core selection mask, so shipping
// those planes is lossless with respect to the byte-identity contract
// while costing 3 bytes and a bit per cell instead of a float64 — the
// float64 mantissas themselves are full-entropy and incompressible.
//
// Record layout (before delta and codec): R plane (n bytes), G plane,
// B plane, then — only when FlagCore is set — the core-mask bitset,
// LSB-first. Alpha does not travel: the renderer's color lookup always
// yields opaque colors, and transparency is mask-driven.
type shardView struct {
	n       int
	r, g, b []byte
	core    []byte // bitset, nil when the sample has no core frame
}

// coreBit reports cell i's eddy-core selection.
func (v shardView) coreBit(i int) bool { return v.core[i/8]&(1<<(i%8)) != 0 }

// shardEncoder turns one rank's slice of the per-sample render tables
// into a wire payload: gather the planar record, XOR-delta it against
// the previous sample's record for the same (rank, field) when the
// lengths match, then run the codec. All scratch is reused; the returned
// payload is valid until the next encode call. Not safe for concurrent
// use.
type shardEncoder struct {
	codec Codec
	prev  map[uint64][]byte
	raw   []byte
	delta []byte
	wire  []byte
}

func newShardEncoder(c Codec) *shardEncoder {
	return &shardEncoder{codec: c, prev: map[uint64][]byte{}}
}

// encode gathers cells' entries of the full-mesh colors table (and core
// mask, when non-nil) into the shard record and encodes it. It returns
// the wire payload, the header flags, and the raw byte length — the
// 8 bytes/cell of the float64 shard this record stands in for, which is
// what a naive in-transit transport would move and the baseline the
// transit.bytes.raw counter reports.
func (se *shardEncoder) encode(rank, field uint32, cells []int, colors []color.RGBA, core []bool) (payload []byte, flags uint8, rawLen int) {
	n := len(cells)
	rawLen = 8 * n
	recLen := 3 * n
	if core != nil {
		recLen += maskLen(n)
		flags |= FlagCore
	}
	se.raw = grow(se.raw, recLen)
	rp, gp, bp := se.raw[0:n], se.raw[n:2*n], se.raw[2*n:3*n]
	for i, ci := range cells {
		c := colors[ci]
		rp[i], gp[i], bp[i] = c.R, c.G, c.B
	}
	if core != nil {
		mask := se.raw[3*n : recLen]
		clear(mask)
		for i, ci := range cells {
			if core[ci] {
				mask[i/8] |= 1 << (i % 8)
			}
		}
	}
	work := se.raw
	key := shardKey(rank, field)
	if p, ok := se.prev[key]; ok && len(p) == recLen {
		se.delta = grow(se.delta, recLen)
		for i := range se.raw {
			se.delta[i] = se.raw[i] ^ p[i]
		}
		flags |= FlagDelta
		work = se.delta
	}
	se.prev[key] = append(se.prev[key][:0], se.raw...)
	se.wire = se.codec.Encode(se.wire, work)
	return se.wire, flags, rawLen
}

// shardDecoder inverts shardEncoder, maintaining the mirrored delta
// state. Not safe for concurrent use; each connection owns one, so a
// reconnect starts from a clean slate on both sides.
type shardDecoder struct {
	codec Codec
	prev  map[uint64][]byte
	buf   []byte
}

func newShardDecoder(c Codec) *shardDecoder {
	return &shardDecoder{codec: c, prev: map[uint64][]byte{}}
}

// decode decodes a shard payload for a rank known to own n cells. The
// returned view aliases the decoder's buffer and is valid until the next
// decode call.
func (sd *shardDecoder) decode(rank, field uint32, flags uint8, payload []byte, n int) (shardView, error) {
	if flags&^(FlagDelta|FlagCore) != 0 {
		return shardView{}, fmt.Errorf("%w: rank %d flags %#x", ErrBadShard, rank, flags)
	}
	recLen := 3 * n
	if flags&FlagCore != 0 {
		recLen += maskLen(n)
	}
	var err error
	sd.buf, err = sd.codec.Decode(sd.buf, payload, recLen)
	if err != nil {
		return shardView{}, fmt.Errorf("%w: rank %d: %v", ErrBadShard, rank, err)
	}
	if len(sd.buf) != recLen {
		return shardView{}, fmt.Errorf("%w: rank %d shard decodes to %d bytes, record for %d cells is %d",
			ErrBadShard, rank, len(sd.buf), n, recLen)
	}
	work := sd.buf
	key := shardKey(rank, field)
	if flags&FlagDelta != 0 {
		p, ok := sd.prev[key]
		if !ok || len(p) != len(work) {
			return shardView{}, fmt.Errorf("%w: delta shard for rank %d field %d without matching previous sample",
				ErrBadShard, rank, field)
		}
		for i := range work {
			work[i] ^= p[i]
		}
	}
	// The encoder leaves the mask bits past the last cell clear; a record
	// that sets them would decode to the same view as one that does not.
	if flags&FlagCore != 0 && n%8 != 0 && work[recLen-1]>>(n%8) != 0 {
		return shardView{}, fmt.Errorf("%w: rank %d core mask sets bits past its %d cells", ErrBadShard, rank, n)
	}
	sd.prev[key] = append(sd.prev[key][:0], work...)
	v := shardView{n: n, r: work[0:n], g: work[n : 2*n], b: work[2*n : 3*n]}
	if flags&FlagCore != 0 {
		v.core = work[3*n : recLen]
	}
	return v, nil
}
