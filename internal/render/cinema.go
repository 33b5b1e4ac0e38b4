package render

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
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
// The frame format is chosen from the frame itself. An *image.Paletted —
// what SampleRenderer emits for every frame whose colours qualify — is
// written as an 8-bit (or narrower) index-colour PNG at png.BestSpeed: one
// byte per pixel and no filter pass instead of three bytes through five
// filters. So is an *image.RGBA whose pixels are all opaque and take at
// most 256 distinct colours, palettized first with its palette in order of
// first appearance; SampleRenderer orders its palettes the same way, so a
// frame's bytes do not depend on which of the two it arrived as. Anything
// else takes the stdlib truecolour path at its default level, byte for
// byte what png.Encoder{} writes. Both decode to the same pixels.
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
	switch img := img.(type) {
	case *image.Paletted:
		err = e.idx.encode(w, img, png.BestSpeed)
	case *image.RGBA:
		if e.pal.palettize(img) {
			err = e.idx.encode(w, &e.pal.img, png.BestSpeed)
		} else {
			err = e.rgb.encode(w, img, png.DefaultCompression)
		}
	default:
		err = e.rgb.encode(w, img, png.DefaultCompression)
	}
	if err != nil {
		return fmt.Errorf("render: png encode: %w", err)
	}
	return nil
}

// maxBoxed bounds a colourIndex's cache of boxed palette entries. A run's
// frames draw from one colormap LUT plus a background, a few hundred values;
// the bound only stops an adversarial frame stream growing the cache.
const maxBoxed = 4096

// colourIndex numbers a frame's distinct opaque colours in the order they
// are first added: the palette of an index-colour frame.
type colourIndex struct {
	// Open-addressed colour → index table, four slots per possible colour.
	// Keys are little-endian RGBA words; an opaque colour's is never zero,
	// which marks an empty slot.
	keys    [1024]uint32
	slot    [1024]uint8
	colours [256]uint32
	n       int

	// image/png's PLTE writer passes every palette entry through
	// color.NRGBAModel.Convert, which boxes a fresh value for anything but
	// a color.NRGBA. Entries are therefore kept as already-boxed NRGBA
	// values and reused across frames: zero allocations in steady state.
	boxed map[uint32]color.Color
}

// reset forgets the colours of the previous frame.
func (x *colourIndex) reset() {
	clear(x.keys[:])
	x.n = 0
}

// add returns the palette index of colour word k, numbering it when it is
// new. It reports false for a colour that is not opaque or would be the
// 257th.
func (x *colourIndex) add(k uint32) (uint8, bool) {
	if k>>24 != 0xff {
		return 0, false
	}
	s := k * 0x9E3779B1 >> 22
	for x.keys[s] != k {
		if x.keys[s] == 0 {
			if x.n == len(x.colours) {
				return 0, false
			}
			x.keys[s], x.slot[s] = k, uint8(x.n)
			x.colours[x.n] = k
			x.n++
			break
		}
		s = (s + 1) % uint32(len(x.keys))
	}
	return x.slot[s], true
}

// palette returns pal[:0] holding the colours added since the last reset,
// in index order.
func (x *colourIndex) palette(pal color.Palette) color.Palette {
	if x.boxed == nil || len(x.boxed)+x.n > maxBoxed {
		x.boxed = make(map[uint32]color.Color)
	}
	pal = pal[:0]
	for _, k := range x.colours[:x.n] {
		c, ok := x.boxed[k]
		if !ok {
			c = color.NRGBA{R: uint8(k), G: uint8(k >> 8), B: uint8(k >> 16), A: 0xff}
			x.boxed[k] = c
		}
		pal = append(pal, c)
	}
	return pal
}

// palettizer rewrites an opaque, at most 256-colour RGBA frame as an
// image.Paletted in one pass. Palette order is first appearance in scan
// order, so the output is a function of the frame's pixels alone. Frames
// the renderer emits are index-colour already; this serves RGBA callers.
type palettizer struct {
	img image.Paletted // Pix and Palette are reused frame to frame
	ix  colourIndex
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
	p.ix.reset()

	var last uint32
	var lastIdx uint8
	for y := 0; y < h; y++ {
		row := src.Pix[y*src.Stride:][:4*w]
		out := p.img.Pix[y*w:][:w]
		for x := range out {
			k := binary.LittleEndian.Uint32(row[4*x:])
			if k != last || p.ix.n == 0 {
				i, ok := p.ix.add(k)
				if !ok {
					return false
				}
				last, lastIdx = k, i
			}
			out[x] = lastIdx
		}
	}
	p.img.Palette = p.ix.palette(p.img.Palette)
	return true
}
