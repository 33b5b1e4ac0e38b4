// Package render is the visualization substrate standing in for the
// paper's ParaView/Catalyst renderer: color maps, a parallel equirectangular
// rasterizer for cell fields on spherical meshes, sort-last image
// compositing across simulated ranks (the role IceT plays in ParaView), and
// a Cinema-style image database writer. Images are encoded as real PNGs so
// the in-situ pipeline's storage footprint is measured, not assumed.
package render

import (
	"fmt"
	"image/color"
	"math"
)

// Colormap maps a normalized value in [0, 1] to a color. Values outside the
// range are clamped.
type Colormap struct {
	stops []stop
}

type stop struct {
	t       float64
	r, g, b float64
}

// NewColormap builds a colormap from interpolation stops; positions must be
// strictly increasing, starting at 0 and ending at 1.
func NewColormap(positions []float64, colors []color.RGBA) (*Colormap, error) {
	if len(positions) != len(colors) {
		return nil, fmt.Errorf("render: %d positions vs %d colors", len(positions), len(colors))
	}
	if len(positions) < 2 {
		return nil, fmt.Errorf("render: colormap needs at least 2 stops")
	}
	if positions[0] != 0 || positions[len(positions)-1] != 1 {
		return nil, fmt.Errorf("render: colormap must span [0,1], got [%g,%g]",
			positions[0], positions[len(positions)-1])
	}
	cm := &Colormap{}
	prev := math.Inf(-1)
	for i, p := range positions {
		if p <= prev {
			return nil, fmt.Errorf("render: colormap positions not increasing at %d", i)
		}
		prev = p
		c := colors[i]
		cm.stops = append(cm.stops, stop{t: p, r: float64(c.R), g: float64(c.G), b: float64(c.B)})
	}
	return cm, nil
}

// At returns the color for normalized value t, clamping to [0, 1].
func (cm *Colormap) At(t float64) color.RGBA {
	if math.IsNaN(t) {
		return color.RGBA{A: 255} // NaN data renders black
	}
	if t <= 0 {
		s := cm.stops[0]
		return color.RGBA{R: uint8(s.r), G: uint8(s.g), B: uint8(s.b), A: 255}
	}
	if t >= 1 {
		s := cm.stops[len(cm.stops)-1]
		return color.RGBA{R: uint8(s.r), G: uint8(s.g), B: uint8(s.b), A: 255}
	}
	hi := 1
	for cm.stops[hi].t < t {
		hi++
	}
	lo := hi - 1
	a, b := cm.stops[lo], cm.stops[hi]
	f := (t - a.t) / (b.t - a.t)
	lerp := func(x, y float64) uint8 { return uint8(math.Round(x + f*(y-x))) }
	return color.RGBA{R: lerp(a.r, b.r), G: lerp(a.g, b.g), B: lerp(a.b, b.b), A: 255}
}

// OkuboWeissMap returns the paper's Fig. 2 palette: green for
// rotation-dominated (negative W, eddy cores) through white near zero to
// blue for strain-dominated shear regions.
func OkuboWeissMap() *Colormap {
	cm, err := NewColormap(
		[]float64{0, 0.45, 0.5, 0.55, 1},
		[]color.RGBA{
			{R: 0, G: 104, B: 55, A: 255},    // deep green: strong rotation
			{R: 166, G: 217, B: 106, A: 255}, // light green
			{R: 247, G: 247, B: 247, A: 255}, // near-white: quiescent
			{R: 146, G: 197, B: 222, A: 255}, // light blue
			{R: 5, G: 48, B: 97, A: 255},     // deep blue: strong shear
		})
	if err != nil {
		panic(err) // static table; unreachable
	}
	return cm
}

// Normalizer rescales raw field values into [0, 1] for a colormap.
type Normalizer struct {
	Min, Max float64
}

// SymmetricRange returns a Normalizer centered on zero spanning the largest
// absolute value of field, so diverging maps place zero at the midpoint.
func SymmetricRange(field []float64) Normalizer {
	var mx float64
	for _, v := range field {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		mx = 1
	}
	return Normalizer{Min: -mx, Max: mx}
}

// Normalize maps v into [0, 1], clamping.
func (n Normalizer) Normalize(v float64) float64 {
	t := (v - n.Min) / (n.Max - n.Min)
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}
