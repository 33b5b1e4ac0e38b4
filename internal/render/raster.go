package render

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"math"
	"runtime"

	"insituviz/internal/mesh"
	"insituviz/internal/workpool"
)

// Rasterizer draws cell-centered fields of a spherical mesh onto an image
// through a precomputed pixel-to-cell mapping, which depends only on
// geometry: NewRasterizer maps an equirectangular (longitude-latitude)
// image, the projection the paper's Fig. 2 uses; NewOrthoRasterizer maps an
// orthographic globe.
//
// A Rasterizer owns scratch buffers (the per-cell color tables and the bound
// row loop of the Into variants), so it must be used from one goroutine at
// a time; build one per goroutine for concurrent rendering. Row bands are
// executed on the persistent worker pool.
type Rasterizer struct {
	Mesh   *mesh.Mesh
	Width  int
	Height int

	pixelCell []int32 // color-table index per pixel, row-major: the cell, or NCells off the globe
	order     []int32 // the color-table indices pixelCell holds, in the order of their first pixel

	colors   []color.RGBA // per-cell colors of the field entry points, reused across frames
	lut      []uint32     // packed pixel per color-table index, plus Background at NCells; SampleRenderer fills it too
	envImg   *image.RGBA  // operands of the bound row loop
	envOwned []bool
	rowLoop  func(y0, y1 int)
}

// NewRasterizer builds an equirectangular rasterizer of the given image
// size. Typical sizes are small — Cinema-style image databases trade
// resolution for interactivity — so a few hundred pixels across is the norm.
func NewRasterizer(m *mesh.Mesh, width, height int) (*Rasterizer, error) {
	if err := checkRaster(m, width, height); err != nil {
		return nil, err
	}
	// mesh.FromLatLon's products of the same sines and cosines, each
	// evaluated once per row or column instead of once per pixel.
	cosLat, sinLat := make([]float64, height), make([]float64, height)
	for y := range cosLat {
		lat := math.Pi/2 - (float64(y)+0.5)/float64(height)*math.Pi
		cosLat[y], sinLat[y] = math.Cos(lat), math.Sin(lat)
	}
	cosLon, sinLon := make([]float64, width), make([]float64, width)
	for x := range cosLon {
		lon := -math.Pi + (float64(x)+0.5)/float64(width)*2*math.Pi
		cosLon[x], sinLon[x] = math.Cos(lon), math.Sin(lon)
	}
	return newRasterizer(m, width, height, func(x, y int) (mesh.Vec3, bool) {
		return mesh.Vec3{cosLat[y] * cosLon[x], cosLat[y] * sinLon[x], sinLat[y]}, true
	})
}

// newRasterizer precomputes the pixel-to-cell mapping under project, which
// returns the unit-sphere point a pixel shows, or false off the globe.
func newRasterizer(m *mesh.Mesh, width, height int, project func(x, y int) (mesh.Vec3, bool)) (*Rasterizer, error) {
	if err := checkRaster(m, width, height); err != nil {
		return nil, err
	}
	r := &Rasterizer{Mesh: m, Width: width, Height: height}
	r.pixelCell = make([]int32, width*height)
	offGlobe := int32(m.NCells())
	r.colors = make([]color.RGBA, offGlobe)
	r.lut = make([]uint32, offGlobe+1)
	r.lut[offGlobe] = packPixel(Background)

	// Precompute the mapping in parallel row bands. Within a row the walk
	// search starts from the previous pixel's cell, so lookups are O(1)
	// amortized.
	workpool.Run(height, tileChunks(height), func(y0, y1 int) {
		last := 0
		for y := y0; y < y1; y++ {
			for x := 0; x < width; x++ {
				p, ok := project(x, y)
				if !ok {
					r.pixelCell[y*width+x] = offGlobe
					continue
				}
				last = m.NearestCell(p, last)
				r.pixelCell[y*width+x] = int32(last)
			}
		}
	})
	r.order = firstAppearance(r.pixelCell, m.NCells()+1)

	// The bound row loop reads its operands from the rasterizer so frame
	// renders allocate no closures (see the package's hot-path note).
	r.rowLoop = func(y0, y1 int) {
		img, owned := r.envImg, r.envOwned
		for y := y0; y < y1; y++ {
			row := img.Pix[y*img.Stride : y*img.Stride+4*r.Width]
			for x, ci := range r.pixelCell[y*r.Width : (y+1)*r.Width] {
				if owned != nil && int(ci) < len(owned) && !owned[ci] {
					// Explicitly transparent, so reused frames carry no
					// stale pixels from the previous mask. Off-globe pixels
					// belong to no cell and stay Background under any mask.
					binary.LittleEndian.PutUint32(row[4*x:], 0)
					continue
				}
				binary.LittleEndian.PutUint32(row[4*x:], r.lut[ci])
			}
		}
	}
	return r, nil
}

// checkRaster rejects a mesh or an image size no rasterizer can map.
func checkRaster(m *mesh.Mesh, width, height int) error {
	if m == nil || m.NCells() == 0 {
		return fmt.Errorf("render: nil or empty mesh")
	}
	if width < 2 || height < 2 {
		return fmt.Errorf("render: image size %dx%d too small", width, height)
	}
	if width*height > 64<<20 {
		return fmt.Errorf("render: image size %dx%d too large", width, height)
	}
	return nil
}

// firstAppearance returns the distinct values of pixelCell, all below
// entries, in the order of their first occurrence: a frame that draws table
// entry e at every pixel showing e takes its colours in exactly this order,
// which is the palette order PNGEncoder's palettizer would find scanning its
// pixels.
func firstAppearance(pixelCell []int32, entries int) []int32 {
	// Counted first, so the list the rasterizer keeps is exactly sized.
	seen := make([]bool, entries)
	n := 0
	for _, ci := range pixelCell {
		if !seen[ci] {
			seen[ci] = true
			n++
		}
	}
	clear(seen)
	order := make([]int32, 0, n)
	for _, ci := range pixelCell {
		if !seen[ci] {
			seen[ci] = true
			order = append(order, ci)
		}
	}
	return order
}

// tileChunks returns the fan-out width for rendering height rows: a few
// tiles per GOMAXPROCS so the pool's in-order claims can balance rows of
// uneven cost, never more tiles than rows. The pool itself caps how many
// of them run at once.
func tileChunks(height int) int {
	c := 4 * runtime.GOMAXPROCS(0)
	if c > height {
		c = height
	}
	if c < 1 {
		c = 1
	}
	return c
}

// NewFrame allocates an RGBA frame sized for the rasterizer, for reuse with
// the Into render variants.
func (r *Rasterizer) NewFrame() *image.RGBA {
	return image.NewRGBA(image.Rect(0, 0, r.Width, r.Height))
}

// CellForPixel returns the mesh cell rendered at pixel (x, y), or -1 for
// background.
func (r *Rasterizer) CellForPixel(x, y int) (int, error) {
	if x < 0 || x >= r.Width || y < 0 || y >= r.Height {
		return 0, fmt.Errorf("render: pixel (%d,%d) outside %dx%d", x, y, r.Width, r.Height)
	}
	if ci := int(r.pixelCell[y*r.Width+x]); ci < r.Mesh.NCells() {
		return ci, nil
	}
	return -1, nil
}

// Render draws the field with the given colormap and normalization into a
// new RGBA image, parallelizing across row bands.
func (r *Rasterizer) Render(field []float64, cm *Colormap, n Normalizer) (*image.RGBA, error) {
	img := r.NewFrame()
	if err := r.renderOwnedInto(img, field, cm, n, nil); err != nil {
		return nil, err
	}
	return img, nil
}

// RenderOwnedInto draws into img — a frame from NewFrame (or any RGBA image
// of the rasterizer's exact size) — only the pixels whose cells are owned
// (owned[cell] == true): owned pixels get the field color, all others are
// written fully transparent, so a reused frame needs no clearing between
// masks. This is the per-rank render of a sort-last pipeline that
// composites whole partial frames (CompositeInto merges them): the
// reference SampleRenderer's footprint composite is tested against.
func (r *Rasterizer) RenderOwnedInto(img *image.RGBA, field []float64, cm *Colormap, n Normalizer, owned []bool) error {
	if len(owned) != r.Mesh.NCells() {
		return fmt.Errorf("render: ownership mask has %d cells, want %d", len(owned), r.Mesh.NCells())
	}
	return r.renderOwnedInto(img, field, cm, n, owned)
}

// RenderColorsOwnedInto is RenderOwnedInto with the per-cell color table
// precomputed by the caller instead of derived from a field — the path
// every ortho view of a sample takes (see SampleRenderer): the sim derives
// the table once and any process rasterizing it produces byte-identical
// frames.
// owned may be nil to draw every cell.
func (r *Rasterizer) RenderColorsOwnedInto(img *image.RGBA, colors []color.RGBA, owned []bool) error {
	if len(colors) != r.Mesh.NCells() {
		return fmt.Errorf("render: color table has %d cells, want %d", len(colors), r.Mesh.NCells())
	}
	if owned != nil && len(owned) != r.Mesh.NCells() {
		return fmt.Errorf("render: ownership mask has %d cells, want %d", len(owned), r.Mesh.NCells())
	}
	if img == nil || img.Bounds() != image.Rect(0, 0, r.Width, r.Height) {
		return fmt.Errorf("render: frame must be %dx%d at the origin", r.Width, r.Height)
	}
	for ci, c := range colors {
		r.lut[ci] = packPixel(c)
	}
	r.raster(img, owned)
	return nil
}

// raster draws the frame of the table as filled into img, a frame of the
// rasterizer's geometry; owned as in RenderColorsOwnedInto.
func (r *Rasterizer) raster(img *image.RGBA, owned []bool) {
	r.envImg, r.envOwned = img, owned
	workpool.Run(r.Height, tileChunks(r.Height), r.rowLoop)
}

// renderOwnedInto is the field entry points' body: derive the colors, then
// the color path.
func (r *Rasterizer) renderOwnedInto(img *image.RGBA, field []float64, cm *Colormap, n Normalizer, owned []bool) error {
	colors, err := fieldColors(r.colors, r.Mesh.NCells(), field, cm, n)
	if err != nil {
		return err
	}
	return r.RenderColorsOwnedInto(img, colors, owned)
}

// packPixel is c as the little-endian word of its four RGBA bytes, so one
// 32-bit store writes a whole pixel in image.RGBA's byte order.
func packPixel(c color.RGBA) uint32 {
	return uint32(c.R) | uint32(c.G)<<8 | uint32(c.B)<<16 | uint32(c.A)<<24
}

// fieldColors fills buf (reallocated when its size differs) with each
// cell's color under cm and n. Color lookup is per cell, not per pixel, so
// every renderer computes the table once and rasterizes from it.
func fieldColors(buf []color.RGBA, nCells int, field []float64, cm *Colormap, n Normalizer) ([]color.RGBA, error) {
	if len(field) != nCells {
		return nil, fmt.Errorf("render: field has %d cells, want %d", len(field), nCells)
	}
	if cm == nil {
		return nil, fmt.Errorf("render: nil colormap")
	}
	if len(buf) != nCells {
		buf = make([]color.RGBA, nCells)
	}
	for ci, v := range field {
		buf[ci] = cm.At(n.Normalize(v))
	}
	return buf, nil
}
