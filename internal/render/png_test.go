package render

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"slices"
	"testing"
)

// colourFrame is a w×h opaque frame cycling through n distinct colours, so
// every one of them appears when w*h >= n.
func colourFrame(w, h, n int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := 0; i < w*h; i++ {
		c := i % n
		copy(img.Pix[4*i:], []byte{byte(c), byte(c >> 8), byte(3 * c), 0xff})
	}
	return img
}

// stdlibPNG is what the parent commit stored for every frame: the stdlib
// truecolour encoder at its default level.
func stdlibPNG(t testing.TB, img image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&png.Encoder{}).Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireRoundTrip decodes data and requires the pixels of img back. It
// returns the decoded image so callers can assert on its type.
func requireRoundTrip(t testing.TB, img *image.RGBA, data []byte) image.Image {
	t.Helper()
	got, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Bounds().Size() != img.Bounds().Size() {
		t.Fatalf("decoded size %v, want %v", got.Bounds().Size(), img.Bounds().Size())
	}
	// PNG does not record an origin: a sub-image decodes at (0, 0).
	off := img.Bounds().Min.Sub(got.Bounds().Min)
	for y := got.Bounds().Min.Y; y < got.Bounds().Max.Y; y++ {
		for x := got.Bounds().Min.X; x < got.Bounds().Max.X; x++ {
			want := img.RGBAAt(x+off.X, y+off.Y)
			if c := color.RGBAModel.Convert(got.At(x, y)).(color.RGBA); c != want {
				t.Fatalf("pixel (%d,%d) decodes as %v, want %v", x, y, c, want)
			}
		}
	}
	return got
}

func TestPNGEncoderRoundTrip(t *testing.T) {
	// Fully transparent, because that is the one non-opaque premultiplied
	// value an 8-bit un-premultiplied PNG stores without rounding.
	holed := colourFrame(20, 15, 5)
	copy(holed.Pix[4*37:], []byte{0, 0, 0, 0})
	// A sub-image's stride is its parent's: 4·20, not 4·12.
	sub := colourFrame(20, 15, 40).SubImage(image.Rect(3, 2, 15, 11)).(*image.RGBA)
	wideSub := colourFrame(40, 20, 300).SubImage(image.Rect(1, 1, 39, 19)).(*image.RGBA)

	cases := []struct {
		name     string
		img      *image.RGBA
		paletted bool
	}{
		// 1|2, 3|4, 16|17 and 256 straddle the PNG index bit depths 1, 2, 4, 8.
		{"1 colour", colourFrame(20, 15, 1), true},
		{"2 colours", colourFrame(20, 15, 2), true},
		{"3 colours", colourFrame(20, 15, 3), true},
		{"16 colours", colourFrame(20, 15, 16), true},
		{"17 colours", colourFrame(20, 15, 17), true},
		{"256 colours", colourFrame(20, 15, 256), true},
		{"257 colours", colourFrame(20, 15, 257), false},
		{"one non-opaque pixel", holed, false},
		{"sub-image", sub, true},
		{"sub-image over 256 colours", wideSub, false},
	}
	// One encoder across every case, in an order that alternates the two
	// formats: retained state must not leak from frame to frame.
	var enc PNGEncoder
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := enc.Encode(tc.img)
			if err != nil {
				t.Fatal(err)
			}
			got := requireRoundTrip(t, tc.img, data)
			if isPaletted(got) != tc.paletted {
				t.Errorf("decoded as %T, want paletted = %v", got, tc.paletted)
			}
			if !tc.paletted && !bytes.Equal(data, stdlibPNG(t, tc.img)) {
				t.Error("fallback bytes differ from a plain png.Encoder{}")
			}
			fresh, err := EncodePNG(tc.img)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, data) {
				t.Error("a reused encoder and a fresh one wrote different bytes")
			}
		})
	}
}

// qualifies is the reference for the encoder's format fork: every pixel
// opaque and at most 256 distinct colours.
func qualifies(img *image.RGBA) bool {
	var seen []uint32
	for y := img.Rect.Min.Y; y < img.Rect.Max.Y; y++ {
		for x := img.Rect.Min.X; x < img.Rect.Max.X; x++ {
			c := img.RGBAAt(x, y)
			if c.A != 0xff {
				return false
			}
			seen = append(seen, uint32(c.R)<<16|uint32(c.G)<<8|uint32(c.B))
		}
	}
	slices.Sort(seen)
	return len(slices.Compact(seen)) <= 256
}

// FuzzPNGEncoderRoundTrip builds a frame from arbitrary bytes — geometry
// from w and h, pixels from pix repeated to fill it, every alpha forced to
// 0xff when opaque is set — and requires Encode never to panic, a
// qualifying frame to decode paletted with the same pixels, and any other
// frame to be exactly the stdlib's bytes.
func FuzzPNGEncoderRoundTrip(f *testing.F) {
	for _, n := range []int{1, 2, 3, 16, 17, 256, 257} {
		f.Add(uint8(20), uint8(15), true, colourFrame(20, 15, n).Pix)
	}
	f.Add(uint8(20), uint8(15), false, colourFrame(20, 15, 5).Pix[:4*37+3])
	f.Add(uint8(0), uint8(7), true, []byte{})
	f.Add(uint8(255), uint8(255), false, []byte{1, 2, 3})
	var enc PNGEncoder
	f.Fuzz(func(t *testing.T, w, h uint8, opaque bool, pix []byte) {
		img := image.NewRGBA(image.Rect(0, 0, int(w), int(h)))
		for i := range img.Pix {
			if len(pix) > 0 {
				img.Pix[i] = pix[i%len(pix)]
			}
			if opaque && i%4 == 3 {
				img.Pix[i] = 0xff
			}
		}
		data, err := enc.Encode(img)
		if w == 0 || h == 0 {
			if err == nil {
				t.Fatal("an empty frame encoded")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !qualifies(img) {
			if !bytes.Equal(data, stdlibPNG(t, img)) {
				t.Fatal("fallback bytes differ from a plain png.Encoder{}")
			}
			return
		}
		if got := requireRoundTrip(t, img, data); !isPaletted(got) {
			t.Fatalf("qualifying frame decoded as %T", got)
		}
	})
}

func isPaletted(img image.Image) bool {
	_, ok := img.(*image.Paletted)
	return ok
}
