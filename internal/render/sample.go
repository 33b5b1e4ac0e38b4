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
	Workers       int    // each rasterizer's fan-out cap (0 uses GOMAXPROCS)
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

// EmitFunc receives one finished frame with its Cinema axis tuple. The
// frame is reused by the next render, so an emitter that keeps it copies.
type EmitFunc func(img *image.RGBA, simTime, phi, theta float64, name string) error

// SampleRenderer is the one definition of a sample's image set: it owns
// the rasterizer, the per-rank pixel footprints of the RCB blocks, the
// composite and core frames and the ortho rig, and its sample path is two
// operations — Derive a field's tables, Render tables into frames.
// Steady-state rendering allocates nothing. Not safe for concurrent use.
type SampleRenderer struct {
	*SampleDeriver

	part  *partition.Partition
	cells [][]int
	lanes []*trace.Lane

	rast       *Rasterizer
	footprints [][]pixelRun // per block, the row-major runs of pixels its cells cover
	allRuns    []pixelRun   // every block's runs, block-major: the whole frame once
	chunks     []int        // per block, the fan-out width of its footprint
	composited *image.RGBA
	coreFrame  *image.RGBA // allocated at the first core sample

	envPix   []byte // operands of the bound run loop
	envRuns  []pixelRun
	fillRuns func(lo, hi int)

	views     *ImageSetRenderer // nil without ortho views
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
	rast.SetWorkers(cfg.Workers)
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
		composited:    rast.NewFrame(),
		coreName:      cfg.Field + "_cores",
	}
	for r := range sr.cells {
		if sr.cells[r], err = part.Cells(r); err != nil {
			return nil, err
		}
	}
	if err := sr.buildFootprints(cfg.Workers); err != nil {
		return nil, err
	}
	sr.fillRuns = func(lo, hi int) {
		pix, lut, cells := sr.envPix, sr.rast.lut, sr.rast.pixelCell
		for _, run := range sr.envRuns[lo:hi] {
			dst := pix[4*run.lo : 4*run.hi]
			for i, ci := range cells[run.lo:run.hi] {
				binary.LittleEndian.PutUint32(dst[4*i:], lut[ci])
			}
		}
	}
	if cfg.OrthoViews > 0 {
		rig := DefaultCameraSet()
		if cfg.OrthoViews < len(rig) {
			rig = rig[:cfg.OrthoViews]
		}
		sr.cams = rig
		if sr.views, err = NewImageSetRenderer(m, cfg.Height, cfg.Height, rig); err != nil {
			return nil, err
		}
		sr.views.SetWorkers(cfg.Workers)
		for v := range rig {
			sr.viewNames = append(sr.viewNames, fmt.Sprintf("%s_view%d", cfg.Field, v))
		}
	}
	return sr, nil
}

// buildFootprints cuts the frame into the blocks' footprints: each pixel
// goes to the block owning its cell, and off-globe pixels to block 0 — the
// first partial, whose Background a sort-last composite keeps there. The
// runs are counted first and then cut from one exactly sized array, and
// the result is checked to cover every pixel exactly once.
func (sr *SampleRenderer) buildFootprints(workers int) error {
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
		sr.chunks[b] = tileChunks((pixels+w-1)/w, workers)
	}
	if p := slices.Index(seen, false); p >= 0 {
		return fmt.Errorf("render: pixel %d is in no footprint", p)
	}
	return nil
}

// Views returns the number of ortho views per sample.
func (sr *SampleRenderer) Views() int { return len(sr.cams) }

// FramesPerSample is how many frames a full sample emits — the composite,
// the ortho views, and the core frame when enabled — i.e. what a dropped
// sample costs.
func (sr *SampleRenderer) FramesPerSample() int {
	n := 1 + len(sr.cams)
	if sr.cores {
		n++
	}
	return n
}

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
// so a frame costs O(pixels) at any rank count. It is byte for byte what
// CompositeInto makes of per-rank RenderColorsOwnedInto partials, and the
// core frame what FillTransparent(Background) makes of a Core-masked one.
func (sr *SampleRenderer) Render(t SampleTables, simTime float64, emit EmitFunc) error {
	nCells := sr.rast.Mesh.NCells()
	if len(t.Colors) != nCells {
		return fmt.Errorf("render: color table has %d cells, want %d", len(t.Colors), nCells)
	}
	if t.Core != nil && len(t.Core) != nCells {
		return fmt.Errorf("render: core selection has %d cells, want %d", len(t.Core), nCells)
	}
	if err := sr.composite(t.Colors); err != nil {
		return err
	}
	if err := emit(sr.composited, simTime, 0, 0, sr.field); err != nil {
		return err
	}
	if sr.views != nil {
		frames, err := sr.views.RenderColorsFrames(t.Colors)
		if err != nil {
			return err
		}
		for v, img := range frames {
			if err := emit(img, simTime, sr.cams[v].Lon, sr.cams[v].Lat, sr.viewNames[v]); err != nil {
				return err
			}
		}
	}
	if t.Core == nil {
		return nil
	}
	sr.renderCores(t)
	return emit(sr.coreFrame, simTime, 0, 0, sr.coreName)
}

// composite has every block write its footprint of the composite frame,
// each inside its own "render.rank" span, and refuses a frame with holes.
func (sr *SampleRenderer) composite(colors []color.RGBA) error {
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
	sr.envPix = sr.composited.Pix
	for b, runs := range sr.footprints {
		sr.lanes[b].Begin("render.rank")
		sr.envRuns = runs
		workpool.Run(len(runs), sr.chunks[b], sr.fillRuns)
		sr.lanes[b].End()
	}
	if !FullyOpaque(sr.composited) {
		return fmt.Errorf("render: composited image has holes")
	}
	return nil
}

// renderCores draws the core frame in one pass: a core cell's color where
// it is not transparent, Background everywhere else — what FillTransparent
// makes of a core-masked raster.
func (sr *SampleRenderer) renderCores(t SampleTables) {
	if sr.coreFrame == nil {
		sr.coreFrame = sr.rast.NewFrame()
	}
	lut, bg := sr.rast.lut, packPixel(Background)
	for ci, c := range t.Colors {
		lut[ci] = bg
		if t.Core[ci] && c.A != 0 {
			lut[ci] = packPixel(c)
		}
	}
	sr.envPix, sr.envRuns = sr.coreFrame.Pix, sr.allRuns
	workpool.Run(len(sr.allRuns), tileChunks(sr.rast.Height, sr.rast.workers), sr.fillRuns)
}
