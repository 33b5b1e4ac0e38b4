package render

import (
	"bytes"
	"encoding/binary"
	"image"
	"image/color"
	"slices"
	"strings"
	"testing"

	"insituviz/internal/mesh"
)

// indexBothWays draws a w×h frame whose pixel p shows table[cells[p]] two
// ways: as the RGBA frame an Into render makes, and through the
// SampleRenderer's cell-level indexing and 1 B/px fill. ok reports whether
// the indexing qualified the frame; pal is nil when it did not.
func indexBothWays(w, h int, table []color.RGBA, cells []int32) (rgba *image.RGBA, pal *image.Paletted, ok bool) {
	r := &Rasterizer{
		Width: w, Height: h,
		pixelCell: cells,
		order:     firstAppearance(cells, len(table)),
		lut:       make([]uint32, len(table)),
	}
	for e, c := range table {
		r.lut[e] = packPixel(c)
	}
	rgba = image.NewRGBA(image.Rect(0, 0, w, h))
	for p, e := range cells {
		binary.LittleEndian.PutUint32(rgba.Pix[4*p:], r.lut[e])
	}
	sr := &SampleRenderer{idx: make([]uint8, len(table))}
	pal = &image.Paletted{}
	if !sr.index(pal, r) {
		return rgba, nil, false
	}
	sr.envRuns = []pixelRun{{0, int32(w * h)}}
	sr.fillIndex(0, 1)
	return rgba, pal, true
}

// requireSameAsPalettizer checks the indexed frame against PNGEncoder's
// reading of the RGBA one: the indexing qualifies exactly the frames the
// palettizer does, and a qualifying frame encodes to the same bytes.
func requireSameAsPalettizer(t *testing.T, rgba *image.RGBA, pal *image.Paletted, ok bool) {
	t.Helper()
	var p palettizer
	if want := p.palettize(rgba); ok != want {
		t.Fatalf("indexing qualified the frame: %v; the palettizer: %v", ok, want)
	}
	if !ok {
		return
	}
	var a, b PNGEncoder
	got, err := a.Encode(pal)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Encode(rgba)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("index-colour frame encodes differently from its RGBA frame")
	}
}

// tableColour is the k-th of a run of distinct opaque colours.
func tableColour(k int) color.RGBA {
	return color.RGBA{R: byte(k), G: byte(k >> 8), B: byte(3 * k), A: 0xff}
}

// FuzzPalettedFrameMatchesPalettizer builds a color table and a pixel →
// entry map from arbitrary bytes — up to 320 entries, colours repeated
// across entries, some entries transparent or translucent — and requires
// the cell-level index-colour frame to qualify exactly when the per-pixel
// palettizer does and then to encode to the same PNG bytes.
func FuzzPalettedFrameMatchesPalettizer(f *testing.F) {
	f.Add(uint8(20), uint8(15), uint16(300), uint8(0), []byte{}, []byte{})
	f.Add(uint8(20), uint8(15), uint16(256), uint8(0), []byte{}, []byte{})
	f.Add(uint8(20), uint8(15), uint16(257), uint8(0), []byte{}, []byte{})
	f.Add(uint8(7), uint8(3), uint16(40), uint8(2), []byte{5, 0, 9, 1}, []byte{1, 0, 3, 0, 2, 0})
	f.Add(uint8(63), uint8(1), uint16(319), uint8(1), []byte{7, 7, 7, 0}, []byte{255, 1, 0, 0})
	f.Fuzz(func(t *testing.T, w, h uint8, entries uint16, repeat uint8, alphas, pixels []byte) {
		width, height := 1+int(w)%64, 1+int(h)%64
		table := make([]color.RGBA, 1+int(entries)%320)
		for e := range table {
			table[e] = tableColour(e / (1 + int(repeat)%4))
			if len(alphas) > 0 {
				switch alphas[e%len(alphas)] {
				case 0:
					table[e] = color.RGBA{} // premultiplied transparent
				case 1:
					table[e].A = 0x80
				}
			}
		}
		cells := make([]int32, width*height)
		for p := range cells {
			k := p
			if len(pixels) >= 2 {
				i := 2 * (p % (len(pixels) / 2))
				k = int(pixels[i]) | int(pixels[i+1])<<8
			}
			cells[p] = int32(k % len(table))
		}
		rgba, pal, ok := indexBothWays(width, height, table, cells)
		requireSameAsPalettizer(t, rgba, pal, ok)
	})
}

// TestIndexedFrameThresholds runs the qualification boundaries through
// the same comparison as the fuzz target.
func TestIndexedFrameThresholds(t *testing.T) {
	const w, h = 20, 15
	scan := make([]int32, w*h) // pixel p shows entry p mod the table size
	for _, tc := range []struct {
		name      string
		colours   int
		alpha     map[int]uint8 // entry → alpha, where not opaque
		qualifies bool
	}{
		{"256 colours", 256, nil, true},
		{"257 colours", 257, nil, false},
		{"transparent entry no pixel shows", 256, map[int]uint8{256: 0}, true},
		{"transparent entry a pixel shows", 256, map[int]uint8{17: 0}, false},
		{"translucent entry a pixel shows", 256, map[int]uint8{17: 0x80}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			table := make([]color.RGBA, tc.colours+1) // the last entry no pixel shows
			for e := range table {
				table[e] = tableColour(e)
				if a, ok := tc.alpha[e]; ok {
					table[e].A = a
					if a == 0 {
						table[e] = color.RGBA{}
					}
				}
			}
			for p := range scan {
				scan[p] = int32(p % tc.colours)
			}
			rgba, pal, ok := indexBothWays(w, h, table, scan)
			if ok != tc.qualifies {
				t.Fatalf("qualified = %v, want %v", ok, tc.qualifies)
			}
			requireSameAsPalettizer(t, rgba, pal, ok)
		})
	}
}

// shownTable colours the cells r shows so that they take exactly n
// distinct opaque colours, in first-appearance order, and every cell no
// pixel shows the colour fill. Off the globe is Background, which must not
// collide, so n counts it when r shows it.
func shownTable(m *mesh.Mesh, r *Rasterizer, n int, fill color.RGBA) []color.RGBA {
	colors := make([]color.RGBA, m.NCells())
	for ci := range colors {
		colors[ci] = fill
	}
	k := 0
	for _, e := range r.order {
		if int(e) < m.NCells() {
			colors[e] = tableColour(1 + k%n)
			k++
		}
	}
	return colors
}

// TestSampleRendererIndexColour drives the thresholds through a whole
// sample: which composites come out index-colour, that every frame —
// composite, ortho views, core frame — encodes to the bytes of its RGBA
// reference, and that a shown transparent cell still fails the composite
// with its holes error.
func TestSampleRendererIndexColour(t *testing.T) {
	m, err := mesh.NewIcosphere(3, mesh.EarthRadius) // 642 cells
	if err != nil {
		t.Fatal(err)
	}
	const width, height = 32, 16 // fewer pixels than cells, so some are hidden
	sr, err := NewSampleRenderer(m, SampleConfig{Field: "w", Width: width, Height: height, Ranks: 3, OrthoViews: 2, Cores: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.rast.order) < 300 {
		t.Fatalf("the frame shows %d cells, too few to cross 256 colours", len(sr.rast.order))
	}
	if len(sr.rast.order) == m.NCells() {
		t.Fatal("every cell is shown; no hidden cell to make transparent")
	}
	core := make([]bool, m.NCells())
	for ci := range core {
		core[ci] = ci%3 == 0
	}
	// reference draws the sample's frames the RGBA way.
	reference := func(colors []color.RGBA) []*image.RGBA {
		rast, err := NewRasterizer(m, width, height)
		if err != nil {
			t.Fatal(err)
		}
		frames := []*image.RGBA{rast.NewFrame()}
		if err := rast.RenderColorsOwnedInto(frames[0], colors, nil); err != nil {
			t.Fatal(err)
		}
		for _, cam := range DefaultCameraSet()[:2] {
			view, err := NewOrthoRasterizer(m, height, height, cam)
			if err != nil {
				t.Fatal(err)
			}
			f := view.NewFrame()
			if err := view.RenderColorsOwnedInto(f, colors, nil); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		f := rast.NewFrame()
		if err := rast.RenderColorsOwnedInto(f, colors, core); err != nil {
			t.Fatal(err)
		}
		FillTransparent(f, Background)
		return append(frames, f)
	}
	var enc PNGEncoder
	for _, tc := range []struct {
		name   string
		colors []color.RGBA
		want   string // the composite: "paletted", "rgba" or a substring of the error
	}{
		{"256 colours", shownTable(m, sr.rast, 256, tableColour(1)), "paletted"},
		{"257 colours", shownTable(m, sr.rast, 257, tableColour(1)), "rgba"},
		{"transparent cell no pixel shows", shownTable(m, sr.rast, 200, color.RGBA{}), "paletted"},
		{"transparent cell a pixel shows", func() []color.RGBA {
			c := shownTable(m, sr.rast, 200, tableColour(1))
			c[sr.rast.order[5]] = color.RGBA{}
			return c
		}(), "holes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var kinds []string
			var data [][]byte
			err := sr.Render(SampleTables{Colors: tc.colors, Core: core}, 0, func(img image.Image, _, _, _ float64, _ string) error {
				kind := "rgba"
				if _, ok := img.(*image.Paletted); ok {
					kind = "paletted"
				}
				d, err := enc.Encode(img)
				kinds, data = append(kinds, kind), append(data, slices.Clone(d))
				return err
			})
			if err != nil {
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Render = %v, want %q", err, tc.want)
				}
				return
			}
			if kinds[0] != tc.want {
				t.Fatalf("composite emitted %s, want %s", kinds[0], tc.want)
			}
			refs := reference(tc.colors)
			if len(data) != len(refs) {
				t.Fatalf("emitted %d frames, want %d", len(data), len(refs))
			}
			for i, ref := range refs {
				want, err := EncodePNG(ref)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data[i], want) {
					t.Errorf("frame %d (%s) encodes differently from its RGBA reference", i, kinds[i])
				}
			}
			t.Logf("frames emitted as %v", kinds)
		})
	}
}
