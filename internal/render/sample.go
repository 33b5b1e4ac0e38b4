package render

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"math"
	"slices"

	"insituviz/internal/mesh"
	"insituviz/internal/ocean"
	"insituviz/internal/partition"
	"insituviz/internal/trace"
	"insituviz/internal/vizpipe"
	"insituviz/internal/workpool"
)

// SampleConfig fixes the shape of one sample's image set — the paper's
// N_viz unit. The in-process run and the viz worker build their renderer
// from the same value, which is what makes their stores byte-identical.
type SampleConfig struct {
	Field         string // the composite's variable; <Field>_view<N> and <Field>_cores derive from it
	Width, Height int    // equirectangular frame size; ortho views are Height square
	Ranks         int    // sort-last compositing width: one spatially compact RCB block per rank, as MPAS ranks own
	OrthoViews    int    // also render from the first N cameras of DefaultCameraSet (0 disables)
	Cores         bool   // add the frame of only the rotation-dominated cores (W below the Okubo-Weiss threshold)
}

// SampleTables are one sample's render-exact tables: everything a
// committed frame consumes of the field. Rasterizing them anywhere yields
// the same bytes, so they are also what the in-transit tier ships.
type SampleTables struct {
	Colors []color.RGBA // per-cell color under the symmetric Okubo-Weiss map
	Core   []bool       // eddy-core selection; nil when the sample has no core frame
}

// SampleDeriver turns a sampled field into its SampleTables. It needs only
// the mesh, so a process that ships tables instead of rasterizing them (the
// in-transit client) holds a deriver and nothing else.
type SampleDeriver struct {
	mesh   *mesh.Mesh
	field  string
	cores  bool
	cm     *Colormap
	colors []color.RGBA // reused across samples
}

// NewSampleDeriver builds the deriver for a non-nil mesh.
func NewSampleDeriver(m *mesh.Mesh, field string, cores bool) *SampleDeriver {
	return &SampleDeriver{mesh: m, field: field, cores: cores, cm: OkuboWeissMap()}
}

// Derive computes the sample's tables: the color table through the
// symmetric normalization and the Okubo-Weiss map, and — when core frames
// are on and the threshold is negative — the core selection as a vizpipe
// filter chain thresholding the rotation-dominated tail. The tables alias
// the deriver's buffers and are valid until the next Derive.
func (d *SampleDeriver) Derive(simTime float64, values []float64) (SampleTables, error) {
	colors, err := fieldColors(d.colors, d.mesh.NCells(), values, d.cm, SymmetricRange(values))
	if err != nil {
		return SampleTables{}, err
	}
	d.colors = colors
	t := SampleTables{Colors: colors}
	if !d.cores {
		return t, nil
	}
	th := ocean.OkuboWeissThreshold(values)
	if th >= 0 {
		return t, nil
	}
	ds, err := vizpipe.NewDataset(d.mesh, simTime)
	if err != nil {
		return t, err
	}
	if err := ds.AddField(d.field, values); err != nil {
		return t, err
	}
	chain := &vizpipe.Pipeline{}
	if err := chain.Append(&vizpipe.Threshold{Field: d.field, Min: math.Inf(-1), Max: th}); err != nil {
		return t, err
	}
	sel, err := chain.Execute(ds)
	if err != nil {
		return t, err
	}
	t.Core = sel.Mask
	return t, nil
}

// EmitFunc receives one finished frame with its Cinema axis tuple: an
// *image.Paletted when every color the frame shows is opaque and there are
// at most 256 of them, else an *image.RGBA. The frame is reused by the next
// render, so an emitter that keeps it copies.
type EmitFunc func(img image.Image, simTime, phi, theta float64, name string) error

// FramesPerSample is how many frames a full sample emits — the composite,
// the ortho views, and the core frame when enabled — i.e. what a dropped
// sample costs.
func (c SampleConfig) FramesPerSample() int {
	n := 1 + min(max(c.OrthoViews, 0), len(DefaultCameraSet()))
	if c.Cores {
		n++
	}
	return n
}

// SampleRenderer is the one definition of a sample's image set: it owns
// the rasterizer, the per-rank pixel footprints of the RCB blocks, the
// composite and core frames and the ortho rig, and its sample path is two
// operations — Derive a field's tables, Render tables into frames.
// Steady-state rendering allocates nothing. Not safe for concurrent use.
//
// A frame is indexed at the cell level: each rasterizer knows which table
// entries its pixels show, in the order of their first pixel, so a frame's
// palette is those entries' colors in that order — the palette PNGEncoder
// would find scanning the RGBA frame — and its pixels are written at one
// byte each. A frame that shows a non-opaque color or more than 256 colors
// is rastered as RGBA instead, into a frame allocated at first need.
type SampleRenderer struct {
	*SampleDeriver

	part  *partition.Partition
	cells [][]int
	lanes []*trace.Lane

	rast       *Rasterizer
	footprints [][]pixelRun // per block, the row-major runs of pixels its cells cover
	allRuns    []pixelRun   // every block's runs, block-major: the whole frame once
	chunks     []int        // per block, the fan-out width of its footprint

	composite image.Paletted
	core      image.Paletted
	rgbaComp  *image.RGBA // the RGBA fallbacks, allocated at first need
	rgbaCore  *image.RGBA

	ix  colourIndex
	idx []uint8 // palette index per table entry of the frame being indexed

	envPix   []byte // operands of the bound run loops
	envRuns  []pixelRun
	envCells []int32
	fillRuns func(lo, hi int) // 4 B/px from the rasterizer's table
	fillIdx  func(lo, hi int) // 1 B/px from idx

	views     []*Rasterizer // the ortho rig, square frames of Height
	viewRuns  []pixelRun    // a view's rows, one run each
	viewPal   []image.Paletted
	viewRGBA  []*image.RGBA
	cams      []Camera
	viewNames []string
	coreName  string
}

// pixelRun is the row-major pixel range [lo, hi) of one frame row.
type pixelRun struct{ lo, hi int32 }

// NewSampleRenderer builds the render stack for one run configuration.
func NewSampleRenderer(m *mesh.Mesh, cfg SampleConfig) (*SampleRenderer, error) {
	rast, err := NewRasterizer(m, cfg.Width, cfg.Height)
	if err != nil {
		return nil, err
	}
	part, err := partition.New(m, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	sr := &SampleRenderer{
		SampleDeriver: NewSampleDeriver(m, cfg.Field, cfg.Cores),
		part:          part,
		cells:         make([][]int, cfg.Ranks),
		lanes:         make([]*trace.Lane, cfg.Ranks),
		rast:          rast,
		idx:           make([]uint8, m.NCells()+1),
		coreName:      cfg.Field + "_cores",
	}
	for r := range sr.cells {
		if sr.cells[r], err = part.Cells(r); err != nil {
			return nil, err
		}
	}
	if err := sr.buildFootprints(); err != nil {
		return nil, err
	}
	sr.fillRuns, sr.fillIdx = sr.fillRGBA, sr.fillIndex
	if cfg.OrthoViews > 0 {
		rig := DefaultCameraSet()
		if cfg.OrthoViews < len(rig) {
			rig = rig[:cfg.OrthoViews]
		}
		sr.cams = rig
		for v, cam := range rig {
			r, err := NewOrthoRasterizer(m, cfg.Height, cfg.Height, cam)
			if err != nil {
				return nil, err
			}
			sr.views = append(sr.views, r)
			sr.viewNames = append(sr.viewNames, fmt.Sprintf("%s_view%d", cfg.Field, v))
		}
		sr.viewRuns = make([]pixelRun, cfg.Height)
		for y := range sr.viewRuns {
			sr.viewRuns[y] = pixelRun{int32(y * cfg.Height), int32((y + 1) * cfg.Height)}
		}
		sr.viewPal = make([]image.Paletted, len(rig))
		sr.viewRGBA = make([]*image.RGBA, len(rig))
	}
	return sr, nil
}

// buildFootprints cuts the frame into the blocks' footprints: each pixel
// goes to the block owning its cell, and off-globe pixels to block 0 — the
// first partial, whose Background a sort-last composite keeps there. The
// runs are counted first and then cut from one exactly sized array, and
// the result is checked to cover every pixel exactly once.
func (sr *SampleRenderer) buildFootprints() error {
	nCells, w, h := sr.rast.Mesh.NCells(), sr.rast.Width, sr.rast.Height
	owner := make([]int, nCells+1) // off the globe (index nCells) stays block 0
	for b, cells := range sr.cells {
		for _, ci := range cells {
			owner[ci] = b
		}
	}
	// forRuns calls fn for every maximal same-block run within a row.
	forRuns := func(fn func(block int, run pixelRun)) {
		for y := 0; y < h; y++ {
			row := sr.rast.pixelCell[y*w : (y+1)*w]
			lo := 0
			for x := 1; x <= w; x++ {
				if x == w || owner[row[x]] != owner[row[lo]] {
					fn(owner[row[lo]], pixelRun{int32(y*w + lo), int32(y*w + x)})
					lo = x
				}
			}
		}
	}
	counts := make([]int, len(sr.cells))
	total := 0
	forRuns(func(b int, _ pixelRun) { counts[b]++; total++ })
	sr.allRuns = make([]pixelRun, total)
	sr.footprints = make([][]pixelRun, len(counts))
	at := 0
	for b, n := range counts {
		sr.footprints[b] = sr.allRuns[at : at : at+n]
		at += n
	}
	forRuns(func(b int, run pixelRun) { sr.footprints[b] = append(sr.footprints[b], run) })

	seen := make([]bool, w*h)
	sr.chunks = make([]int, len(counts))
	for b, runs := range sr.footprints {
		pixels := 0
		for _, run := range runs {
			for p := run.lo; p < run.hi; p++ {
				if seen[p] {
					return fmt.Errorf("render: pixel %d is in two footprints", p)
				}
				seen[p] = true
			}
			pixels += int(run.hi - run.lo)
		}
		sr.chunks[b] = tileChunks((pixels + w - 1) / w)
	}
	if p := slices.Index(seen, false); p >= 0 {
		return fmt.Errorf("render: pixel %d is in no footprint", p)
	}
	return nil
}

// Views returns the number of ortho views per sample.
func (sr *SampleRenderer) Views() int { return len(sr.cams) }

// Cells returns the per-rank owned-cell lists of the render partition —
// the in-transit tier's sharding map.
func (sr *SampleRenderer) Cells() [][]int { return sr.cells }

// Exchange returns the partition's halo-exchange volume: the on-fabric
// traffic a distributed run pays every refresh.
func (sr *SampleRenderer) Exchange() partition.ExchangeStats { return sr.part.Exchange() }

// SetLane routes block i's "render.rank" raster spans to lane until changed
// (nil, the default, records nothing). Which rank renders a block — and so
// whose lane shows it — is the caller's policy, not the renderer's.
func (sr *SampleRenderer) SetLane(block int, lane *trace.Lane) { sr.lanes[block] = lane }

// Render rasterizes one sample's tables and emits its frames in the fixed
// order composite, <field>_view<N>, <field>_cores. The ortho views carry
// their camera direction on the database axes (phi the rig longitude, theta
// the latitude) so a query server can resolve nearest-viewpoint requests.
//
// The composite is sort-last compositing of each rank's footprint: every
// block writes only the pixels it owns, straight into the composite frame,
// so a frame costs O(pixels) at any rank count. Its pixels are byte for
// byte what CompositeInto makes of per-rank RenderColorsOwnedInto partials,
// and the core frame's what FillTransparent(Background) makes of a
// Core-masked one.
func (sr *SampleRenderer) Render(t SampleTables, simTime float64, emit EmitFunc) error {
	nCells := sr.rast.Mesh.NCells()
	if len(t.Colors) != nCells {
		return fmt.Errorf("render: color table has %d cells, want %d", len(t.Colors), nCells)
	}
	if t.Core != nil && len(t.Core) != nCells {
		return fmt.Errorf("render: core selection has %d cells, want %d", len(t.Core), nCells)
	}
	frame, err := sr.renderComposite(t.Colors)
	if err != nil {
		return err
	}
	if err := emit(frame, simTime, 0, 0, sr.field); err != nil {
		return err
	}
	for v := range sr.views {
		if err := emit(sr.renderView(v, t.Colors), simTime, sr.cams[v].Lon, sr.cams[v].Lat, sr.viewNames[v]); err != nil {
			return err
		}
	}
	if t.Core == nil {
		return nil
	}
	return emit(sr.renderCores(t), simTime, 0, 0, sr.coreName)
}

// index prepares dst as the index-colour frame of r's pixels under r's
// table as filled for this frame: it walks the entries r shows in the order
// of their first pixel, numbering their colors into dst's palette and
// sr.idx, and points fillIndex at dst and r's map. It reports false, and
// stops, at the first entry whose color is not opaque or would be the
// 257th; the frame then takes the RGBA path.
func (sr *SampleRenderer) index(dst *image.Paletted, r *Rasterizer) bool {
	sr.ix.reset()
	for _, e := range r.order {
		i, ok := sr.ix.add(r.lut[e])
		if !ok {
			return false
		}
		sr.idx[e] = i
	}
	if dst.Pix == nil {
		*dst = *image.NewPaletted(image.Rect(0, 0, r.Width, r.Height), nil)
	}
	dst.Palette = sr.ix.palette(dst.Palette)
	sr.envPix, sr.envCells = dst.Pix, r.pixelCell
	return true
}

// fillRGBA writes runs [lo, hi) of envRuns at 4 B/px from the main
// rasterizer's table; fillIndex writes them at 1 B/px from idx through
// envCells. Both run on the pool through the bound fillRuns and fillIdx,
// so a frame allocates no closure.
func (sr *SampleRenderer) fillRGBA(lo, hi int) {
	pix, lut, cells := sr.envPix, sr.rast.lut, sr.rast.pixelCell
	for _, run := range sr.envRuns[lo:hi] {
		dst := pix[4*run.lo : 4*run.hi]
		for i, ci := range cells[run.lo:run.hi] {
			binary.LittleEndian.PutUint32(dst[4*i:], lut[ci])
		}
	}
}

func (sr *SampleRenderer) fillIndex(lo, hi int) {
	pix, idx, cells := sr.envPix, sr.idx, sr.envCells
	for _, run := range sr.envRuns[lo:hi] {
		dst := pix[run.lo:run.hi]
		for i, ci := range cells[run.lo:run.hi] {
			dst[i] = idx[ci]
		}
	}
}

// frameFor readies the main rasterizer's frame of its table as filled:
// pal, indexed, when the frame qualifies, else *rgba, allocated at first
// need. It returns the frame and the bound loop that fills its runs.
func (sr *SampleRenderer) frameFor(pal *image.Paletted, rgba **image.RGBA) (image.Image, func(lo, hi int)) {
	if sr.index(pal, sr.rast) {
		return pal, sr.fillIdx
	}
	if *rgba == nil {
		*rgba = sr.rast.NewFrame()
	}
	sr.envPix = (*rgba).Pix
	return *rgba, sr.fillRuns
}

// renderComposite has every block write its footprint of the composite
// frame, each inside its own "render.rank" span, and refuses a frame with
// holes.
func (sr *SampleRenderer) renderComposite(colors []color.RGBA) (image.Image, error) {
	// The rasterizer's table, Background off the globe, holds this frame's
	// pixels. A transparent color composites to a transparent pixel: no
	// partial contributes there, and the holes check below refuses it.
	lut := sr.rast.lut
	for ci, c := range colors {
		lut[ci] = 0
		if c.A != 0 {
			lut[ci] = packPixel(c)
		}
	}
	frame, fill := sr.frameFor(&sr.composite, &sr.rgbaComp)
	for b, runs := range sr.footprints {
		sr.lanes[b].Begin("render.rank")
		sr.envRuns = runs
		workpool.Run(len(runs), sr.chunks[b], fill)
		sr.lanes[b].End()
	}
	// An index-colour frame shows only opaque colors; an RGBA one is
	// checked.
	if rgba, ok := frame.(*image.RGBA); ok && !FullyOpaque(rgba) {
		return nil, fmt.Errorf("render: composited image has holes")
	}
	return frame, nil
}

// renderView draws ortho view v of the color table.
func (sr *SampleRenderer) renderView(v int, colors []color.RGBA) image.Image {
	r := sr.views[v]
	for ci, c := range colors {
		r.lut[ci] = packPixel(c)
	}
	if sr.index(&sr.viewPal[v], r) {
		sr.envRuns = sr.viewRuns
		workpool.Run(len(sr.viewRuns), tileChunks(r.Height), sr.fillIdx)
		return &sr.viewPal[v]
	}
	if sr.viewRGBA[v] == nil {
		sr.viewRGBA[v] = r.NewFrame()
	}
	r.raster(sr.viewRGBA[v], nil)
	return sr.viewRGBA[v]
}

// renderCores draws the core frame in one pass: a core cell's color where
// it is not transparent, Background everywhere else — what FillTransparent
// makes of a core-masked raster.
func (sr *SampleRenderer) renderCores(t SampleTables) image.Image {
	lut, bg := sr.rast.lut, packPixel(Background)
	for ci, c := range t.Colors {
		lut[ci] = bg
		if t.Core[ci] && c.A != 0 {
			lut[ci] = packPixel(c)
		}
	}
	frame, fill := sr.frameFor(&sr.core, &sr.rgbaCore)
	sr.envRuns = sr.allRuns
	workpool.Run(len(sr.allRuns), tileChunks(sr.rast.Height), fill)
	return frame
}
