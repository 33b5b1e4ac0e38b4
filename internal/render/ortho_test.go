package render

import (
	"image/color"
	"math"
	"testing"

	"insituviz/internal/mesh"
)

func TestNewOrthoRasterizerValidation(t *testing.T) {
	m := testMesh(t)
	if _, err := NewOrthoRasterizer(nil, 16, 16, Camera{}); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := NewOrthoRasterizer(m, 1, 16, Camera{}); err == nil {
		t.Error("tiny image accepted")
	}
	if _, err := NewOrthoRasterizer(m, 1<<16, 1<<16, Camera{}); err == nil {
		t.Error("enormous image accepted")
	}
}

func TestOrthoBackgroundOutsideDisk(t *testing.T) {
	m := testMesh(t)
	r, err := NewOrthoRasterizer(m, 64, 64, Camera{Lat: 0.3, Lon: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Corners are outside the unit disk.
	for _, pt := range [][2]int{{0, 0}, {63, 0}, {0, 63}, {63, 63}} {
		ci, err := r.CellForPixel(pt[0], pt[1])
		if err != nil {
			t.Fatal(err)
		}
		if ci != -1 {
			t.Errorf("corner (%d,%d) maps to cell %d, want background", pt[0], pt[1], ci)
		}
	}
	// The center maps to the cell nearest the camera direction.
	ci, err := r.CellForPixel(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := m.NearestCell(mesh.FromLatLon(0.3, 1.0), 0)
	if ci != want {
		t.Errorf("center cell = %d, want %d", ci, want)
	}
	if _, err := r.CellForPixel(-1, 0); err == nil {
		t.Error("out-of-bounds pixel accepted")
	}
}

func TestOrthoOnlyVisibleHemisphere(t *testing.T) {
	m := testMesh(t)
	view := Camera{Lat: -0.7, Lon: 2.1}
	r, err := NewOrthoRasterizer(m, 48, 48, view)
	if err != nil {
		t.Fatal(err)
	}
	dir := mesh.FromLatLon(view.Lat, view.Lon)
	for y := 0; y < 48; y += 3 {
		for x := 0; x < 48; x += 3 {
			ci, _ := r.CellForPixel(x, y)
			if ci < 0 {
				continue
			}
			// Every drawn cell faces the camera (allowing boundary slack
			// of one cell radius on the coarse test mesh).
			if m.Cells[ci].Center.Dot(dir) < -0.3 {
				t.Fatalf("pixel (%d,%d) shows far-side cell %d", x, y, ci)
			}
		}
	}
}

func TestOrthoRenderColors(t *testing.T) {
	m := testMesh(t)
	field := make([]float64, m.NCells())
	for ci := range field {
		field[ci] = m.Cells[ci].Lat
	}
	r, err := NewOrthoRasterizer(m, 40, 40, Camera{Lat: 0, Lon: 0})
	if err != nil {
		t.Fatal(err)
	}
	// A blue-to-red ramp over the latitude range: south cool, north warm.
	ramp, err := NewColormap([]float64{0, 1}, []color.RGBA{{B: 255, A: 255}, {R: 255, A: 255}})
	if err != nil {
		t.Fatal(err)
	}
	img, err := r.Render(field, ramp, SymmetricRange(field))
	if err != nil {
		t.Fatal(err)
	}
	// Background corners carry the background color.
	if got := img.RGBAAt(0, 0); got != Background {
		t.Errorf("corner = %v, want background", got)
	}
	// Looking at the equator: top of the disk is north (warm), bottom is
	// south (cool).
	top := img.RGBAAt(20, 4)
	bottom := img.RGBAAt(20, 35)
	if !(top.R > top.B) {
		t.Errorf("north pixel %v not warm", top)
	}
	if !(bottom.B > bottom.R) {
		t.Errorf("south pixel %v not cool", bottom)
	}
	// Validation.
	if _, err := r.Render(make([]float64, 3), ramp, SymmetricRange(field)); err == nil {
		t.Error("mis-sized field accepted")
	}
	if _, err := r.Render(field, nil, SymmetricRange(field)); err == nil {
		t.Error("nil colormap accepted")
	}
}

func TestOrthoPoleCameras(t *testing.T) {
	m := testMesh(t)
	for _, cam := range []Camera{{Lat: math.Pi / 2}, {Lat: -math.Pi / 2}} {
		r, err := NewOrthoRasterizer(m, 32, 32, cam)
		if err != nil {
			t.Fatalf("pole camera %+v: %v", cam, err)
		}
		ci, _ := r.CellForPixel(16, 16)
		if ci < 0 {
			t.Fatalf("pole camera %+v: center is background", cam)
		}
		lat, _ := m.Cells[ci].Center.LatLon()
		if cam.Lat > 0 && lat < 1.0 {
			t.Errorf("north-pole view centers on lat %v", lat)
		}
		if cam.Lat < 0 && lat > -1.0 {
			t.Errorf("south-pole view centers on lat %v", lat)
		}
	}
}

func TestImageSet(t *testing.T) {
	m := testMesh(t)
	field := make([]float64, m.NCells())
	for ci := range field {
		field[ci] = math.Sin(m.Cells[ci].Lon)
	}
	cams := DefaultCameraSet()
	if len(cams) != 6 {
		t.Fatalf("default rig has %d cameras", len(cams))
	}
	sr, err := NewImageSetRenderer(m, 32, 32, cams)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := sr.RenderFrames(field, OkuboWeissMap(), SymmetricRange(field))
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 6 {
		t.Fatalf("image set has %d views", len(imgs))
	}
	// Opposite equatorial views must differ (they see different
	// hemispheres of an east-west varying field).
	same := true
	for i := range imgs[0].Pix {
		if imgs[0].Pix[i] != imgs[2].Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("opposite views identical")
	}
	if _, err := NewImageSetRenderer(m, 32, 32, nil); err == nil {
		t.Error("empty rig accepted")
	}
}

func TestImageSetRendererReuse(t *testing.T) {
	m := testMesh(t)
	rig := DefaultCameraSet()[:3]
	sr, err := NewImageSetRenderer(m, 24, 24, rig)
	if err != nil {
		t.Fatal(err)
	}
	f1 := make([]float64, m.NCells())
	f2 := make([]float64, m.NCells())
	for ci := range f1 {
		f1[ci] = 1
		f2[ci] = m.Cells[ci].Lat
	}
	cm := OkuboWeissMap()
	a, err := sr.RenderFrames(f1, cm, Normalizer{Min: 0, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("views = %d", len(a))
	}
	first := a[0]
	b, err := sr.RenderFrames(f2, cm, SymmetricRange(f2))
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != first {
		t.Error("second render did not reuse the first frame")
	}
	// The reused frame carries nothing over from the previous field.
	fresh, err := NewOrthoRasterizer(m, 24, 24, rig[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Render(f2, cm, SymmetricRange(f2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pix {
		if b[0].Pix[i] != want.Pix[i] {
			t.Fatalf("reused frame differs from a fresh render at byte %d", i)
		}
	}
}

func BenchmarkOrthoRender(b *testing.B) {
	m, err := mesh.NewIcosphere(4, mesh.EarthRadius)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewOrthoRasterizer(m, 256, 256, Camera{Lat: 0.4, Lon: 1.2})
	if err != nil {
		b.Fatal(err)
	}
	field := make([]float64, m.NCells())
	for ci := range field {
		field[ci] = math.Cos(3 * m.Cells[ci].Lat)
	}
	cm := OkuboWeissMap()
	n := SymmetricRange(field)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Render(field, cm, n); err != nil {
			b.Fatal(err)
		}
	}
}
