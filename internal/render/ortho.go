package render

import (
	"fmt"
	"image"
	"image/color"
	"math"

	"insituviz/internal/mesh"
)

// Camera is a viewpoint for orthographic globe rendering, given as the
// geographic coordinates the camera looks down upon.
type Camera struct {
	Lat float64 // radians
	Lon float64 // radians
}

// DefaultCameraSet returns the six-view camera rig a Cinema image database
// typically stores per timestep: four equatorial views a quarter turn
// apart plus the two poles. This is what turns one timestep into an
// "image set" in the paper's accounting.
func DefaultCameraSet() []Camera {
	return []Camera{
		{Lat: 0, Lon: 0},
		{Lat: 0, Lon: math.Pi / 2},
		{Lat: 0, Lon: math.Pi},
		{Lat: 0, Lon: -math.Pi / 2},
		{Lat: math.Pi / 2, Lon: 0},
		{Lat: -math.Pi / 2, Lon: 0},
	}
}

// Background is the color drawn outside the globe's disk.
var Background = color.RGBA{R: 12, G: 12, B: 16, A: 255}

// NewOrthoRasterizer builds a rasterizer that draws the visible hemisphere
// of a spherical mesh as an orthographic globe seen from view, the way an
// interactive viewer presents Cinema imagery, with Background outside the
// globe's disk.
func NewOrthoRasterizer(m *mesh.Mesh, width, height int, view Camera) (*Rasterizer, error) {
	dir := mesh.FromLatLon(view.Lat, view.Lon)
	east, north := mesh.TangentBasis(dir)
	half := float64(min(width, height)) / 2
	return newRasterizer(m, width, height, func(x, y int) (mesh.Vec3, bool) {
		py := (float64(height)/2 - (float64(y) + 0.5)) / half
		px := ((float64(x) + 0.5) - float64(width)/2) / half
		rr := px*px + py*py
		if rr > 1 {
			return mesh.Vec3{}, false
		}
		z := math.Sqrt(1 - rr)
		// east·px + north·py + dir·z, summed left to right per component:
		// the order fixes the bits TestRasterMapGoldenHash pins.
		return mesh.Vec3{
			east[0]*px + north[0]*py + dir[0]*z,
			east[1]*px + north[1]*py + dir[1]*z,
			east[2]*px + north[2]*py + dir[2]*z,
		}, true
	})
}

// ImageSetRenderer holds per-camera rasterizers (and reusable frames) for
// rendering one field from every camera of a rig — the "set of images
// corresponding to one timestep" of the paper's beta coefficient.
type ImageSetRenderer struct {
	rasters []*Rasterizer
	frames  []*image.RGBA
	colors  []color.RGBA // per-cell color LUT of RenderFrames, reused across calls
}

// NewImageSetRenderer precomputes rasterizers for every camera.
func NewImageSetRenderer(m *mesh.Mesh, width, height int, cameras []Camera) (*ImageSetRenderer, error) {
	if len(cameras) == 0 {
		return nil, fmt.Errorf("render: empty camera rig")
	}
	out := &ImageSetRenderer{}
	for _, cam := range cameras {
		r, err := NewOrthoRasterizer(m, width, height, cam)
		if err != nil {
			return nil, err
		}
		out.rasters = append(out.rasters, r)
	}
	return out, nil
}

// RenderFrames draws the field from every camera into the renderer's
// internal frames and returns them: the colors are derived once, then every
// camera takes the color path. The frames are reused: they are valid only
// until the next RenderFrames call, which makes steady-state multi-view
// rendering allocation-free.
func (sr *ImageSetRenderer) RenderFrames(field []float64, cm *Colormap, n Normalizer) ([]*image.RGBA, error) {
	colors, err := fieldColors(sr.colors, sr.rasters[0].Mesh.NCells(), field, cm, n)
	if err != nil {
		return nil, err
	}
	sr.colors = colors
	return sr.RenderColorsFrames(colors)
}

// RenderColorsFrames is RenderFrames with the per-cell color table
// precomputed by the caller. The frames are reused and valid only until
// the next render call.
func (sr *ImageSetRenderer) RenderColorsFrames(colors []color.RGBA) ([]*image.RGBA, error) {
	if sr.frames == nil {
		sr.frames = make([]*image.RGBA, len(sr.rasters))
		for i, r := range sr.rasters {
			sr.frames[i] = r.NewFrame()
		}
	}
	for i, r := range sr.rasters {
		if err := r.RenderColorsOwnedInto(sr.frames[i], colors, nil); err != nil {
			return nil, err
		}
	}
	return sr.frames, nil
}
