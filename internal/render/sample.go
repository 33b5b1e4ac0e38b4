package render

import (
	"fmt"
	"image"
	"image/color"
	"math"

	"insituviz/internal/mesh"
	"insituviz/internal/ocean"
	"insituviz/internal/partition"
	"insituviz/internal/trace"
	"insituviz/internal/vizpipe"
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
// the rasterizer, the RCB masks, the partial, composite and core frames and
// the ortho rig, and its sample path is two operations — Derive a field's
// tables, Render tables into frames. Steady-state rendering allocates
// nothing. Not safe for concurrent use.
type SampleRenderer struct {
	*SampleDeriver

	part  *partition.Partition
	cells [][]int
	masks [][]bool
	lanes []*trace.Lane

	rast       *Rasterizer
	partials   []*image.RGBA
	composited *image.RGBA
	coreFrame  *image.RGBA // allocated at the first core sample

	views     *ImageSetRenderer // nil without ortho views
	cams      []Camera
	viewNames []string
	coreName  string
}

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
		masks:         part.Masks(),
		lanes:         make([]*trace.Lane, cfg.Ranks),
		rast:          rast,
		partials:      make([]*image.RGBA, cfg.Ranks),
		composited:    rast.NewFrame(),
		coreName:      cfg.Field + "_cores",
	}
	for r := range sr.cells {
		if sr.cells[r], err = part.Cells(r); err != nil {
			return nil, err
		}
		sr.partials[r] = rast.NewFrame()
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
func (sr *SampleRenderer) Render(t SampleTables, simTime float64, emit EmitFunc) error {
	for i, mask := range sr.masks {
		sr.lanes[i].Begin("render.rank")
		err := sr.rast.RenderColorsOwnedInto(sr.partials[i], t.Colors, mask)
		sr.lanes[i].End()
		if err != nil {
			return err
		}
	}
	if err := CompositeInto(sr.composited, sr.partials); err != nil {
		return err
	}
	if !FullyOpaque(sr.composited) {
		return fmt.Errorf("render: composited image has holes")
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
	if sr.coreFrame == nil {
		sr.coreFrame = sr.rast.NewFrame()
	}
	if err := sr.rast.RenderColorsOwnedInto(sr.coreFrame, t.Colors, t.Core); err != nil {
		return err
	}
	FillTransparent(sr.coreFrame, Background)
	return emit(sr.coreFrame, simTime, 0, 0, sr.coreName)
}
