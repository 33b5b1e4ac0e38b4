package render

import (
	"image"
	"math"
	"testing"

	"insituviz/internal/mesh"
	"insituviz/internal/partition"
)

func testField(m *mesh.Mesh) []float64 {
	field := make([]float64, m.NCells())
	for i := range field {
		field[i] = math.Sin(3*m.Cells[i].Lat) * math.Cos(float64(i%7))
	}
	return field
}

func TestRenderOwnedIntoClearsStalePixels(t *testing.T) {
	// A frame reused across timesteps must not leak pixels from a previous
	// render: switching to a complementary ownership mask has to transparently
	// clear everything the new mask does not own.
	m := testMesh(t)
	r, err := NewRasterizer(m, 96, 48)
	if err != nil {
		t.Fatal(err)
	}
	field := testField(m)
	cm := OkuboWeissMap()
	n := SymmetricRange(field)

	part, err := partition.New(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	masks := part.Masks()
	frame := r.NewFrame()
	if err := r.RenderOwnedInto(frame, field, cm, n, masks[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.RenderOwnedInto(frame, field, cm, n, masks[1]); err != nil {
		t.Fatal(err)
	}
	fresh := r.NewFrame()
	if err := r.RenderOwnedInto(fresh, field, cm, n, masks[1]); err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Pix {
		if frame.Pix[i] != fresh.Pix[i] {
			t.Fatalf("reused frame differs from fresh render at pixel byte %d: %d vs %d", i, frame.Pix[i], fresh.Pix[i])
		}
	}
}

func TestRenderIntoRejectsWrongFrame(t *testing.T) {
	m := testMesh(t)
	r, err := NewRasterizer(m, 96, 48)
	if err != nil {
		t.Fatal(err)
	}
	field := testField(m)
	cm := OkuboWeissMap()
	n := SymmetricRange(field)
	all := make([]bool, m.NCells())
	if err := r.RenderOwnedInto(image.NewRGBA(image.Rect(0, 0, 10, 10)), field, cm, n, all); err == nil {
		t.Error("wrong-size frame accepted")
	}
	if err := r.RenderOwnedInto(image.NewRGBA(image.Rect(1, 1, 97, 49)), field, cm, n, all); err == nil {
		t.Error("offset frame accepted")
	}
}

func TestRenderedFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// One full reused-frame visualization step — masked partial renders,
	// sort-last composite — allocates nothing once buffers exist. A budget
	// of 2 tolerates the GC clearing the worker pool's counter sync.Pool.
	m := testMesh(t)
	r, err := NewRasterizer(m, 96, 48)
	if err != nil {
		t.Fatal(err)
	}
	field := testField(m)
	cm := OkuboWeissMap()
	n := SymmetricRange(field)
	part, err := partition.New(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	masks := part.Masks()
	partials := make([]*image.RGBA, len(masks))
	for i := range partials {
		partials[i] = r.NewFrame()
	}
	composited := r.NewFrame()
	render := func() {
		for i, mask := range masks {
			if err := r.RenderOwnedInto(partials[i], field, cm, n, mask); err != nil {
				t.Fatal(err)
			}
		}
		if err := CompositeInto(composited, partials); err != nil {
			t.Fatal(err)
		}
	}
	render() // warm up colormap LUT and pool state
	allocs := testing.AllocsPerRun(10, render)
	if allocs > 2 {
		t.Errorf("rendered frame allocates %.1f objects per run, want <= 2", allocs)
	}
}

func TestPNGEncoderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// The retained PNGEncoder reuses its output buffer and the stdlib
	// encoder's filter/zlib state. The stdlib still makes a handful of small
	// fixed allocations per Encode (bufio reader setup inside zlib), so the
	// guard is a small constant budget rather than zero. It holds on both
	// sides of the format fork: a flat-shaded mesh frame goes out
	// index-colour — where a palette rebuilt per frame would cost one
	// allocation per entry inside image/png's PLTE writer — a frame of more
	// than 256 colours goes out truecolour as before, and an index-colour
	// frame, as the sample renderer emits, is encoded as it comes.
	m := testMesh(t)
	r, err := NewRasterizer(m, 96, 48)
	if err != nil {
		t.Fatal(err)
	}
	field := testField(m)
	flat, err := r.Render(field, OkuboWeissMap(), SymmetricRange(field))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewSampleRenderer(m, SampleConfig{Field: "w", Width: 96, Height: 48, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := sr.Derive(0, field)
	if err != nil {
		t.Fatal(err)
	}
	var indexed image.Image
	if err := sr.Render(tables, 0, func(img image.Image, _, _, _ float64, _ string) error {
		indexed = img
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := indexed.(*image.Paletted); !ok {
		t.Fatalf("sample renderer emitted %T, want index-colour", indexed)
	}
	for _, tc := range []struct {
		name     string
		img      image.Image
		paletted bool
	}{
		{"flat-shaded mesh frame", flat, true},
		{"300 colours", colourFrame(96, 48, 300), false},
		{"index-colour sample frame", indexed, true},
	} {
		if rgba, ok := tc.img.(*image.RGBA); ok && qualifies(rgba) != tc.paletted {
			t.Fatalf("%s: qualifies for index-colour = %v, want %v", tc.name, !tc.paletted, tc.paletted)
		}
		var enc PNGEncoder
		if _, err := enc.Encode(tc.img); err != nil { // warm up retained buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := enc.Encode(tc.img); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%s: PNG encode allocates %.1f objects per run, want <= 16", tc.name, allocs)
		}
	}
}
