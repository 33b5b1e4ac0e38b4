package render

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/draw"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"insituviz/internal/ocean"
	"insituviz/internal/partition"
	"insituviz/internal/vizpipe"
)

// emitted is one frame a SampleRenderer handed to its emit callback, its
// pixels decoded to RGBA bytes, because the renderer reuses the frame.
type emitted struct {
	name       string
	phi, theta float64
	pix        []byte
}

// rgbaPix returns img's pixels as the bytes of an RGBA frame: what an
// index-colour frame decodes to, and a copy of an RGBA one.
func rgbaPix(img image.Image) []byte {
	out := image.NewRGBA(img.Bounds())
	draw.Draw(out, out.Rect, img, img.Bounds().Min, draw.Src)
	return out.Pix
}

// TestSampleRendererMatchesFieldPath pins the shared sample path against
// the retained field-taking entry points, byte for byte: the benchmark's
// render probes call those entry points, so this equality is what keeps
// them measuring the code the live and in-transit workloads run.
//
// The sample path writes each rank's footprint straight into the composite
// instead of compositing per-rank partials, so the cases span rank counts
// from one block to more blocks than a row has cells, and a frame of fewer
// pixels than blocks, where a footprint is empty and its render a no-op.
func TestSampleRendererMatchesFieldPath(t *testing.T) {
	m := testMesh(t)
	field := testField(m)
	const simTime, views = 3600.0, 2
	for _, tc := range []struct{ width, height, ranks int }{
		{96, 48, 1}, {96, 48, 3}, {96, 48, 4}, {96, 48, 8}, {96, 48, 64},
		{6, 4, 8}, {6, 4, 32},
	} {
		width, height, ranks := tc.width, tc.height, tc.ranks
		name := fmt.Sprintf("ranks%d", ranks)
		if width != 96 {
			name = fmt.Sprintf("%dx%d_%s", width, height, name)
		}
		t.Run(name, func(t *testing.T) {
			cfg := SampleConfig{
				Field: "okubo_weiss", Width: width, Height: height,
				Ranks: ranks, OrthoViews: views, Cores: true,
			}
			sr, err := NewSampleRenderer(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cfg.FramesPerSample(), 1+views+1; got != want {
				t.Errorf("FramesPerSample = %d, want %d", got, want)
			}
			tables, err := sr.Derive(simTime, field)
			if err != nil {
				t.Fatal(err)
			}
			var got []emitted
			err = sr.Render(tables, simTime, func(img image.Image, at, phi, theta float64, name string) error {
				if at != simTime {
					t.Errorf("%s emitted at time %g, want %g", name, at, simTime)
				}
				// 162 opaque cells and Background: every frame qualifies.
				if _, ok := img.(*image.Paletted); !ok {
					t.Errorf("%s emitted as %T, want index-colour", name, img)
				}
				got = append(got, emitted{name, phi, theta, rgbaPix(img)})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			// The same image set through the field-taking entry points.
			cm, norm := OkuboWeissMap(), SymmetricRange(field)
			rast, err := NewRasterizer(m, width, height)
			if err != nil {
				t.Fatal(err)
			}
			part, err := partition.New(m, ranks)
			if err != nil {
				t.Fatal(err)
			}
			var partials []*image.RGBA
			for _, mask := range part.Masks() {
				p := rast.NewFrame()
				if err := rast.RenderOwnedInto(p, field, cm, norm, mask); err != nil {
					t.Fatal(err)
				}
				partials = append(partials, p)
			}
			composited := rast.NewFrame()
			if err := CompositeInto(composited, partials); err != nil {
				t.Fatal(err)
			}
			want := []emitted{{"okubo_weiss", 0, 0, composited.Pix}}
			rig := DefaultCameraSet()[:views]
			set, err := NewImageSetRenderer(m, height, height, rig)
			if err != nil {
				t.Fatal(err)
			}
			frames, err := set.RenderFrames(field, cm, norm)
			if err != nil {
				t.Fatal(err)
			}
			for v, img := range frames {
				want = append(want, emitted{fmt.Sprintf("okubo_weiss_view%d", v), rig[v].Lon, rig[v].Lat, img.Pix})
			}
			ds, err := vizpipe.NewDataset(m, simTime)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.AddField("okubo_weiss", field); err != nil {
				t.Fatal(err)
			}
			chain := &vizpipe.Pipeline{}
			if err := chain.Append(&vizpipe.Threshold{
				Field: "okubo_weiss", Min: math.Inf(-1), Max: ocean.OkuboWeissThreshold(field),
			}); err != nil {
				t.Fatal(err)
			}
			sel, err := chain.Execute(ds)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(sel.Mask, true) {
				t.Fatal("test field selects no core cells")
			}
			core := rast.NewFrame()
			if err := rast.RenderOwnedInto(core, field, cm, norm, sel.Mask); err != nil {
				t.Fatal(err)
			}
			FillTransparent(core, Background)
			want = append(want, emitted{"okubo_weiss_cores", 0, 0, core.Pix})

			if len(got) != len(want) {
				t.Fatalf("emitted %d frames, want %d", len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.name != w.name || g.phi != w.phi || g.theta != w.theta {
					t.Errorf("frame %d is %s at (%g,%g), want %s at (%g,%g)",
						i, g.name, g.phi, g.theta, w.name, w.phi, w.theta)
				}
				if !bytes.Equal(g.pix, w.pix) {
					t.Errorf("frame %s differs from the field path", w.name)
				}
			}
		})
	}
}

// TestFramesPerSampleCountsEmittedFrames holds the configuration's frame
// count, which the in-transit sim uses without building a renderer, to
// what a renderer of that configuration emits, past the end of the camera
// rig too.
func TestFramesPerSampleCountsEmittedFrames(t *testing.T) {
	m := testMesh(t)
	field := testField(m)
	for _, views := range []int{0, 1, 6, 9} {
		for _, cores := range []bool{false, true} {
			cfg := SampleConfig{Field: "w", Width: 24, Height: 12, Ranks: 2, OrthoViews: views, Cores: cores}
			sr, err := NewSampleRenderer(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := sr.Derive(0, field)
			if err != nil {
				t.Fatal(err)
			}
			frames := 0
			if err := sr.Render(tables, 0, func(image.Image, float64, float64, float64, string) error { frames++; return nil }); err != nil {
				t.Fatal(err)
			}
			if got := cfg.FramesPerSample(); got != frames {
				t.Errorf("%d views, cores %v: FramesPerSample = %d, renderer emitted %d", views, cores, got, frames)
			}
		}
	}
}

// TestSampleRendererTransparentColor hands the renderer a table in which
// one visible core cell is fully transparent — something Derive never
// makes — and requires both frames to match the masked reference path byte
// for byte: the composite keeps the hole and is refused, the core frame
// shows Background there.
func TestSampleRendererTransparentColor(t *testing.T) {
	m := testMesh(t)
	const width, height = 96, 48
	sr, err := NewSampleRenderer(m, SampleConfig{Field: "okubo_weiss", Width: width, Height: height, Ranks: 4, Cores: true})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := sr.Derive(0, testField(m))
	if err != nil {
		t.Fatal(err)
	}
	hole, err := sr.rast.CellForPixel(width/2, height/2)
	if err != nil {
		t.Fatal(err)
	}
	colors := slices.Clone(tables.Colors)
	colors[hole] = color.RGBA{R: 200, G: 10, B: 10}
	core := make([]bool, m.NCells())
	for ci := range core {
		core[ci] = ci%3 == 0 || ci == hole
	}
	hand := SampleTables{Colors: colors, Core: core}

	rast, err := NewRasterizer(m, width, height)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.New(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	var partials []*image.RGBA
	for _, mask := range part.Masks() {
		p := rast.NewFrame()
		if err := rast.RenderColorsOwnedInto(p, colors, mask); err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	composited := rast.NewFrame()
	if err := CompositeInto(composited, partials); err != nil {
		t.Fatal(err)
	}
	if FullyOpaque(composited) {
		t.Fatal("reference composite has no hole")
	}
	emitted := 0
	err = sr.Render(hand, 0, func(image.Image, float64, float64, float64, string) error { emitted++; return nil })
	if err == nil || !strings.Contains(err.Error(), "holes") {
		t.Errorf("Render = %v, want the holes error", err)
	}
	if emitted != 0 {
		t.Errorf("Render emitted %d frames of a refused sample", emitted)
	}
	if !bytes.Equal(sr.rgbaComp.Pix, composited.Pix) {
		t.Error("composite differs from the reference composite")
	}

	want := rast.NewFrame()
	if err := rast.RenderColorsOwnedInto(want, colors, core); err != nil {
		t.Fatal(err)
	}
	FillTransparent(want, Background)
	// No core pixel shows the transparent color, so the core frame still
	// qualifies for index colour.
	frame := sr.renderCores(hand)
	if _, ok := frame.(*image.Paletted); !ok {
		t.Errorf("core frame emitted as %T, want index-colour", frame)
	}
	if !bytes.Equal(rgbaPix(frame), want.Pix) {
		t.Error("core frame differs from masked raster + FillTransparent")
	}
	if got := color.RGBAModel.Convert(frame.At(width/2, height/2)); got != Background {
		t.Errorf("transparent core cell drawn as %v, want Background", got)
	}
}

// TestSampleRendererMemoryIndependentOfRanks guards what a renderer costs
// to build: footprints partition one frame however many blocks cut it, so
// 128 ranks may not allocate twice what one rank does. One partial frame
// per rank made it 27x at 96x48 and 32x at 384x192.
func TestSampleRendererMemoryIndependentOfRanks(t *testing.T) {
	m := testMesh(t) // 162 cells, so 128 ranks is near the cap
	for _, size := range [][2]int{{96, 48}, {384, 192}} {
		build := func(ranks int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := NewSampleRenderer(m, SampleConfig{
				Field: "okubo_weiss", Width: size[0], Height: size[1], Ranks: ranks,
			}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		one, many := build(1), build(128)
		t.Logf("%dx%d: 1 rank %d B, 128 ranks %d B (%.2fx)", size[0], size[1], one, many, float64(many)/float64(one))
		if many >= 2*one {
			t.Errorf("%dx%d: 128 ranks allocate %d bytes to build, 1 rank %d (%.1fx), want < 2x",
				size[0], size[1], many, one, float64(many)/float64(one))
		}
	}
}

func TestSampleRenderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// Tables → frames for a full image set (composite, views, cores)
	// allocates nothing once buffers exist; same budget and reason as
	// TestRenderedFrameSteadyStateAllocs.
	m := testMesh(t)
	cfg := SampleConfig{Field: "okubo_weiss", Width: 96, Height: 48, Ranks: 3, OrthoViews: 2, Cores: true}
	sr, err := NewSampleRenderer(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := sr.Derive(0, testField(m))
	if err != nil {
		t.Fatal(err)
	}
	if tables.Core == nil {
		t.Fatal("test field selects no core cells")
	}
	frames := 0
	emit := func(image.Image, float64, float64, float64, string) error { frames++; return nil }
	render := func() {
		if err := sr.Render(tables, 0, emit); err != nil {
			t.Fatal(err)
		}
	}
	render() // warm up the lazily built frames and pool state
	if frames != cfg.FramesPerSample() {
		t.Fatalf("emitted %d frames, want %d", frames, cfg.FramesPerSample())
	}
	allocs := testing.AllocsPerRun(10, render)
	if allocs > 2 {
		t.Errorf("sample render allocates %.1f objects per run, want <= 2", allocs)
	}
}
