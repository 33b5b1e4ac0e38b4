// Package intransit is the distributed sim→viz tier: a length-prefixed
// binary wire protocol over TCP connecting the simulation's render ranks
// to dedicated viz worker processes, with on-wire compression and
// reconnect-with-resume.
//
// The paper's cost model t = t_sim + α·S_io + β·N_viz prices moving
// field data off the simulation as α·S_io; with in-process render ranks
// that term is only ever a simulated disk quantity. This package makes
// it a measured network quantity — the Catalyst-ADIOS2 in-transit hybrid
// (Mazen et al., PAPERS.md), whose headline result is exactly the
// bandwidth saved by compressing data on the wire.
//
// Topology: the sim (Client) partitions each sampled field into
// per-rank shards and streams them to a worker (Server) that owns the
// sample. The worker composites sort-last across ranks, renders through
// the same render/workpool stack the in-process path uses, writes frames
// into the shared store directory, and acks back the store entries; the
// sim adopts them into its own index and commits. The correctness
// contract is byte-identity: a -transport=tcp run commits a Cinema
// database byte-identical to a -transport=inproc run of the same seed.
//
// Shards carry the render-exact form of the field, not raw float64s:
// the per-cell colors the renderer would derive (plus the eddy-core
// selection mask when that frame is due), computed on the sim with the
// exact code the in-process path runs. The committed images depend on
// the field only through that derivation, so the encoding is lossless
// with respect to the byte-identity contract — and it is what makes
// on-wire compression real: the Okubo-Weiss field's float64 mantissas
// are full-entropy (measured: every low byte plane is ~uniform), so no
// lossless byte codec recovers more than the top exponent byte, while
// the color planes are smooth and compress well.
//
// Wire format: every frame is a fixed 32-byte header followed by the
// payload. All integers are big-endian.
//
//	offset  size  field
//	0       4     magic "IVTR"
//	4       1     protocol version (1)
//	5       1     frame type
//	6       1     flags (delta, core-mask)
//	7       1     reserved (0)
//	8       4     rank
//	12      8     sample sequence number
//	20      4     field id
//	24      4     payload length
//	28      4     CRC32C over header[0:28] + payload
//
// The CRC covers the header so a flipped length or seq is caught, not
// just payload corruption. Decoders reject bad magic, unknown versions (a
// set reserved byte included), oversize lengths, and checksum mismatches
// without panicking, and a claimed length allocates no more than the
// stream actually delivers; framing
// errors are not recoverable on a stream, so any of them closes the
// connection and the client resumes on a fresh one.
package intransit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Protocol constants.
const (
	// Magic opens every frame: "IVTR" (In-situ Viz TRansit).
	Magic = "IVTR"
	// Version is the protocol version this package speaks.
	Version = 1
	// HeaderSize is the fixed frame header length, checksum included.
	HeaderSize = 32
	// MaxPayload bounds a frame's payload so a corrupt or hostile length
	// field cannot drive an allocation of arbitrary size.
	MaxPayload = 64 << 20
)

// FrameType identifies what a frame carries.
type FrameType uint8

// The frame types of the protocol.
const (
	// FrameHello opens a connection: the client announces the codec it
	// wants and the run configuration the worker must mirror (JSON).
	FrameHello FrameType = 1 + iota
	// FrameHelloAck accepts: the worker echoes the negotiated codec and
	// the last sample seq it has fully committed (JSON), so a resuming
	// client knows where to pick up.
	FrameHelloAck
	// FrameShard carries one rank's shard of one field of one sample:
	// the owned cells' render-exact planes, wire-encoded (delta/codec per
	// the header flags).
	FrameShard
	// FrameSampleEnd marks a sample complete: every shard of every field
	// has been sent. Its payload is empty.
	FrameSampleEnd
	// FrameSampleAck reports a rendered-and-stored sample back to the
	// client: the frame count, stored bytes, and store entries (JSON).
	FrameSampleAck
	// FrameError carries a worker-side failure description (UTF-8 text);
	// the connection closes after it.
	FrameError
)

// String names the frame type for logs and errors.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "hello-ack"
	case FrameShard:
		return "shard"
	case FrameSampleEnd:
		return "sample-end"
	case FrameSampleAck:
		return "sample-ack"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Header flags describing a shard payload.
const (
	// FlagDelta marks a shard XOR-delta-encoded against the previous
	// sample's shard for the same (rank, field).
	FlagDelta uint8 = 1 << iota
	// FlagCore marks a shard whose record carries the eddy-core selection
	// mask plane after the color planes — set on every shard of a sample
	// that renders the thresholded core frame.
	FlagCore
)

// Frame is one decoded protocol frame. Payload aliases the decoder's
// internal buffer and is valid only until the next Decode call.
type Frame struct {
	Type    FrameType
	Flags   uint8
	Rank    uint32
	Seq     uint64
	Field   uint32
	Payload []byte
}

// Decoder rejection errors. These are wrapped with positional context;
// match with errors.Is.
var (
	ErrBadMagic   = errors.New("intransit: bad magic")
	ErrBadVersion = errors.New("intransit: unsupported protocol version")
	ErrBadType    = errors.New("intransit: unknown frame type")
	ErrOversize   = errors.New("intransit: payload exceeds MaxPayload")
	ErrChecksum   = errors.New("intransit: CRC mismatch")
)

// castagnoli is the CRC32C table; Castagnoli is hardware-accelerated on
// both amd64 and arm64, so checksumming is far from the bottleneck.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder writes frames to a stream. Each frame is assembled in a
// reused scratch buffer and issued as a single Write, so a frame is
// never interleaved with another writer's bytes and small frames do not
// pay per-fragment syscalls. Not safe for concurrent use.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode frames and writes one message. The payload is copied into the
// scratch buffer before writing, so the caller may reuse it immediately.
func (e *Encoder) Encode(f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrOversize, len(f.Payload))
	}
	n := HeaderSize + len(f.Payload)
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	b := e.buf[:n]
	copy(b[0:4], Magic)
	b[4] = Version
	b[5] = uint8(f.Type)
	b[6] = f.Flags
	b[7] = 0
	binary.BigEndian.PutUint32(b[8:12], f.Rank)
	binary.BigEndian.PutUint64(b[12:20], f.Seq)
	binary.BigEndian.PutUint32(b[20:24], f.Field)
	binary.BigEndian.PutUint32(b[24:28], uint32(len(f.Payload)))
	copy(b[HeaderSize:], f.Payload)
	crc := crc32.Update(0, castagnoli, b[0:28])
	crc = crc32.Update(crc, castagnoli, b[HeaderSize:])
	binary.BigEndian.PutUint32(b[28:32], crc)
	if _, err := e.w.Write(b); err != nil {
		return fmt.Errorf("intransit: write %s frame: %w", f.Type, err)
	}
	return nil
}

// Decoder reads frames from a stream, reusing one payload buffer across
// frames. Not safe for concurrent use.
type Decoder struct {
	r       io.Reader
	header  [HeaderSize]byte
	payload []byte
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads and verifies the next frame. The returned Frame's
// Payload aliases the decoder's buffer: it is valid only until the next
// Decode call, and callers that retain it must copy. io.EOF is returned
// untouched at a clean frame boundary; a stream truncated mid-frame
// yields io.ErrUnexpectedEOF.
func (d *Decoder) Decode() (Frame, error) {
	h := d.header[:]
	if _, err := io.ReadFull(d.r, h); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("intransit: read header: %w", err)
	}
	if string(h[0:4]) != Magic {
		return Frame{}, fmt.Errorf("%w: % x", ErrBadMagic, h[0:4])
	}
	if h[4] != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadVersion, h[4])
	}
	if h[7] != 0 {
		// Version 1 writes the reserved byte as zero; a frame that sets it
		// speaks some other protocol revision.
		return Frame{}, fmt.Errorf("%w: reserved header byte %#x", ErrBadVersion, h[7])
	}
	typ := FrameType(h[5])
	if typ < FrameHello || typ > FrameError {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadType, h[5])
	}
	length := binary.BigEndian.Uint32(h[24:28])
	if length > MaxPayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrOversize, length)
	}
	p, err := d.readPayload(int(length))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("intransit: read %s payload: %w", typ, err)
	}
	crc := crc32.Update(0, castagnoli, h[0:28])
	crc = crc32.Update(crc, castagnoli, p)
	if want := binary.BigEndian.Uint32(h[28:32]); crc != want {
		return Frame{}, fmt.Errorf("%w: computed %08x, frame says %08x", ErrChecksum, crc, want)
	}
	return Frame{
		Type:    typ,
		Flags:   h[6],
		Rank:    binary.BigEndian.Uint32(h[8:12]),
		Seq:     binary.BigEndian.Uint64(h[12:20]),
		Field:   binary.BigEndian.Uint32(h[20:24]),
		Payload: p,
	}, nil
}

// readPayload reads an n-byte payload into the reused buffer. A buffer
// short of n grows only as bytes arrive, so a header that claims a large
// payload over a short stream costs what the stream holds, not what the
// header says.
func (d *Decoder) readPayload(n int) ([]byte, error) {
	p := d.payload[:0]
	for len(p) < n {
		if len(p) == cap(p) {
			grown := make([]byte, len(p), min(n, max(2*cap(p), 4096)))
			copy(grown, p)
			p = grown
		}
		k, err := io.ReadFull(d.r, p[len(p):min(cap(p), n)])
		p = p[:len(p)+k]
		if err != nil {
			d.payload = p
			return nil, err
		}
	}
	d.payload = p
	return p, nil
}
