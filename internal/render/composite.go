package render

import (
	"fmt"
	"image"
	"image/color"
	"math"
)

// CompositeInto merges per-rank partial images produced by RenderOwnedInto
// into dst, which must match their bounds — the sort-last compositing step
// (the role IceT plays in ParaView's parallel rendering). Pixels are taken
// from the first partial with non-zero alpha; with a correct disjoint
// partition exactly one rank contributes each pixel. Every pixel of dst is
// overwritten (cleared, then merged), so one destination frame can be
// reused across timesteps without allocating.
func CompositeInto(dst *image.RGBA, partials []*image.RGBA) error {
	if len(partials) == 0 {
		return fmt.Errorf("render: nothing to composite")
	}
	if dst == nil {
		return fmt.Errorf("render: nil composite destination")
	}
	bounds := partials[0].Bounds()
	if dst.Bounds() != bounds {
		return fmt.Errorf("render: destination bounds %v != %v", dst.Bounds(), bounds)
	}
	for i, p := range partials {
		if p == nil {
			return fmt.Errorf("render: partial %d is nil", i)
		}
		if p.Bounds() != bounds {
			return fmt.Errorf("render: partial %d bounds %v != %v", i, p.Bounds(), bounds)
		}
	}
	for i := range dst.Pix {
		dst.Pix[i] = 0
	}
	n := len(dst.Pix)
	for _, p := range partials {
		for o := 0; o < n; o += 4 {
			if dst.Pix[o+3] == 0 && p.Pix[o+3] != 0 {
				dst.Pix[o] = p.Pix[o]
				dst.Pix[o+1] = p.Pix[o+1]
				dst.Pix[o+2] = p.Pix[o+2]
				dst.Pix[o+3] = p.Pix[o+3]
			}
		}
	}
	return nil
}

// FullyOpaque reports whether every pixel of img has full alpha — the
// correctness condition after compositing a complete partition.
func FullyOpaque(img *image.RGBA) bool {
	for o := 3; o < len(img.Pix); o += 4 {
		if img.Pix[o] != 255 {
			return false
		}
	}
	return true
}

// PSNR returns the peak signal-to-noise ratio between two equally sized
// images in dB (+Inf for identical images) — the regression metric for
// comparing renderings across pipeline implementations.
func PSNR(a, b *image.RGBA) (float64, error) {
	if a == nil || b == nil {
		return 0, fmt.Errorf("render: nil image")
	}
	if a.Bounds() != b.Bounds() {
		return 0, fmt.Errorf("render: bounds %v vs %v", a.Bounds(), b.Bounds())
	}
	var se float64
	n := 0
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		se += d * d
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("render: empty images")
	}
	mse := se / float64(n)
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// FillTransparent paints every fully transparent pixel of img with c,
// turning a masked partial render into a presentable image.
func FillTransparent(img *image.RGBA, c color.RGBA) {
	for o := 0; o < len(img.Pix); o += 4 {
		if img.Pix[o+3] == 0 {
			img.Pix[o] = c.R
			img.Pix[o+1] = c.G
			img.Pix[o+2] = c.B
			img.Pix[o+3] = c.A
		}
	}
}

// ResizeNearest rescales img to w x h by nearest-neighbor sampling — the
// cheap rescale used when comparing image-database resolutions.
func ResizeNearest(img *image.RGBA, w, h int) (*image.RGBA, error) {
	if img == nil {
		return nil, fmt.Errorf("render: nil image")
	}
	sw := img.Bounds().Dx()
	sh := img.Bounds().Dy()
	if sw == 0 || sh == 0 {
		return nil, fmt.Errorf("render: empty source image")
	}
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("render: invalid target size %dx%d", w, h)
	}
	out := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		sy := img.Bounds().Min.Y + y*sh/h
		for x := 0; x < w; x++ {
			sx := img.Bounds().Min.X + x*sw/w
			out.SetRGBA(x, y, img.RGBAAt(sx, sy))
		}
	}
	return out, nil
}
