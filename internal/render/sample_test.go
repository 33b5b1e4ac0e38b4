package render

import (
	"bytes"
	"fmt"
	"image"
	"math"
	"slices"
	"testing"

	"insituviz/internal/ocean"
	"insituviz/internal/partition"
	"insituviz/internal/vizpipe"
)

// emitted is one frame a SampleRenderer handed to its emit callback, copied
// because the renderer reuses the frame.
type emitted struct {
	name       string
	phi, theta float64
	pix        []byte
}

// TestSampleRendererMatchesFieldPath pins the shared sample path against
// the retained field-taking entry points, byte for byte: the benchmark's
// render probes call those entry points, so this equality is what keeps
// them measuring the code the live and in-transit workloads run.
func TestSampleRendererMatchesFieldPath(t *testing.T) {
	m := testMesh(t)
	field := testField(m)
	const simTime, width, height, views = 3600.0, 96, 48, 2
	for _, ranks := range []int{1, 4} {
		t.Run(fmt.Sprintf("ranks%d", ranks), func(t *testing.T) {
			sr, err := NewSampleRenderer(m, SampleConfig{
				Field: "okubo_weiss", Width: width, Height: height,
				Ranks: ranks, OrthoViews: views, Cores: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sr.FramesPerSample(), 1+views+1; got != want {
				t.Errorf("FramesPerSample = %d, want %d", got, want)
			}
			tables, err := sr.Derive(simTime, field)
			if err != nil {
				t.Fatal(err)
			}
			var got []emitted
			err = sr.Render(tables, simTime, func(img *image.RGBA, at, phi, theta float64, name string) error {
				if at != simTime {
					t.Errorf("%s emitted at time %g, want %g", name, at, simTime)
				}
				got = append(got, emitted{name, phi, theta, append([]byte(nil), img.Pix...)})
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

func TestSampleRenderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// Tables → frames for a full image set (composite, views, cores)
	// allocates nothing once buffers exist; same budget and reason as
	// TestRenderedFrameSteadyStateAllocs.
	m := testMesh(t)
	sr, err := NewSampleRenderer(m, SampleConfig{
		Field: "okubo_weiss", Width: 96, Height: 48, Ranks: 3, OrthoViews: 2, Cores: true,
	})
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
	emit := func(*image.RGBA, float64, float64, float64, string) error { frames++; return nil }
	render := func() {
		if err := sr.Render(tables, 0, emit); err != nil {
			t.Fatal(err)
		}
	}
	render() // warm up the lazily built frames and pool state
	if frames != sr.FramesPerSample() {
		t.Fatalf("emitted %d frames, want %d", frames, sr.FramesPerSample())
	}
	allocs := testing.AllocsPerRun(10, render)
	if allocs > 2 {
		t.Errorf("sample render allocates %.1f objects per run, want <= 2", allocs)
	}
}
