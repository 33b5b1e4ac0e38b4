package render

import (
	"image"
	"image/color"
	"math"
	"os"
	"path/filepath"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/mesh"
	"insituviz/internal/partition"
	"insituviz/internal/units"
)

func testMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.NewIcosphere(2, mesh.EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewColormapValidation(t *testing.T) {
	c := color.RGBA{A: 255}
	if _, err := NewColormap("x", []float64{0}, []color.RGBA{c}); err == nil {
		t.Error("single stop accepted")
	}
	if _, err := NewColormap("x", []float64{0, 1}, []color.RGBA{c}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewColormap("x", []float64{0.1, 1}, []color.RGBA{c, c}); err == nil {
		t.Error("range not starting at 0 accepted")
	}
	if _, err := NewColormap("x", []float64{0, 0.9}, []color.RGBA{c, c}); err == nil {
		t.Error("range not ending at 1 accepted")
	}
	if _, err := NewColormap("x", []float64{0, 0.5, 0.5, 1}, []color.RGBA{c, c, c, c}); err == nil {
		t.Error("non-increasing positions accepted")
	}
}

func TestColormapInterpolation(t *testing.T) {
	cm, err := NewColormap("ramp", []float64{0, 1},
		[]color.RGBA{{R: 0, A: 255}, {R: 200, A: 255}})
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.At(0.5); got.R != 100 {
		t.Errorf("At(0.5).R = %d, want 100", got.R)
	}
	if got := cm.At(-1); got.R != 0 {
		t.Errorf("clamp low: R = %d", got.R)
	}
	if got := cm.At(2); got.R != 200 {
		t.Errorf("clamp high: R = %d", got.R)
	}
	if got := cm.At(math.NaN()); got != (color.RGBA{A: 255}) {
		t.Errorf("NaN color = %v", got)
	}
	if cm.Name() != "ramp" {
		t.Errorf("Name = %q", cm.Name())
	}
}

func TestBuiltinColormaps(t *testing.T) {
	ow := OkuboWeissMap()
	for _, tv := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if c := ow.At(tv); c.A != 255 {
			t.Errorf("%s.At(%v) not opaque", ow.Name(), tv)
		}
	}
	// The Okubo-Weiss palette must be green at the negative end and blue at
	// the positive end, as in the paper's Fig. 2.
	lo := ow.At(0)
	if !(lo.G > lo.R && lo.G > lo.B) {
		t.Errorf("OW low end %v not green", lo)
	}
	hi := ow.At(1)
	if !(hi.B > hi.R && hi.B > hi.G) {
		t.Errorf("OW high end %v not blue", hi)
	}
}

func TestNormalizer(t *testing.T) {
	n := Normalizer{Min: 10, Max: 20}
	if n.Normalize(15) != 0.5 {
		t.Errorf("Normalize(15) = %v", n.Normalize(15))
	}
	if n.Normalize(5) != 0 || n.Normalize(25) != 1 {
		t.Error("clamping failed")
	}
	sym := SymmetricRange([]float64{-3, 5})
	if sym.Min != -5 || sym.Max != 5 {
		t.Errorf("SymmetricRange = %+v", sym)
	}
	zsym := SymmetricRange([]float64{0, 0})
	if !(zsym.Min < zsym.Max) {
		t.Errorf("zero SymmetricRange degenerate: %+v", zsym)
	}
}

func TestNewRasterizerValidation(t *testing.T) {
	m := testMesh(t)
	if _, err := NewRasterizer(nil, 10, 10); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := NewRasterizer(m, 1, 10); err == nil {
		t.Error("tiny width accepted")
	}
	if _, err := NewRasterizer(m, 1<<16, 1<<16); err == nil {
		t.Error("enormous image accepted")
	}
}

func TestRasterizerPixelMapping(t *testing.T) {
	m := testMesh(t)
	r, err := NewRasterizer(m, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Every pixel must map to the brute-force nearest cell.
	for y := 0; y < r.Height; y += 7 {
		for x := 0; x < r.Width; x += 7 {
			ci, err := r.CellForPixel(x, y)
			if err != nil {
				t.Fatal(err)
			}
			lat := math.Pi/2 - (float64(y)+0.5)/float64(r.Height)*math.Pi
			lon := -math.Pi + (float64(x)+0.5)/float64(r.Width)*2*math.Pi
			p := mesh.FromLatLon(lat, lon)
			best, bestDot := 0, -2.0
			for k := range m.Cells {
				if d := m.Cells[k].Center.Dot(p); d > bestDot {
					best, bestDot = k, d
				}
			}
			if ci != best {
				t.Fatalf("pixel (%d,%d): cell %d, want %d", x, y, ci, best)
			}
		}
	}
	if _, err := r.CellForPixel(-1, 0); err == nil {
		t.Error("out-of-bounds pixel accepted")
	}
	if _, err := r.CellForPixel(0, 32); err == nil {
		t.Error("out-of-bounds pixel accepted")
	}
}

func TestRenderProducesOpaqueImage(t *testing.T) {
	m := testMesh(t)
	r, err := NewRasterizer(m, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	field := make([]float64, m.NCells())
	for ci := range field {
		field[ci] = m.Cells[ci].Lat
	}
	// A blue-to-red ramp over the latitude range: south cool, north warm.
	ramp, err := NewColormap("ramp", []float64{0, 1}, []color.RGBA{{B: 255, A: 255}, {R: 255, A: 255}})
	if err != nil {
		t.Fatal(err)
	}
	img, err := r.Render(field, ramp, SymmetricRange(field))
	if err != nil {
		t.Fatal(err)
	}
	if !FullyOpaque(img) {
		t.Error("full render left transparent pixels")
	}
	// Northern rows should be warm (red), southern rows cool (blue).
	top := img.RGBAAt(40, 1)
	bottom := img.RGBAAt(40, 38)
	if !(top.R > top.B) {
		t.Errorf("north pixel %v not warm", top)
	}
	if !(bottom.B > bottom.R) {
		t.Errorf("south pixel %v not cool", bottom)
	}
}

func TestRenderValidation(t *testing.T) {
	m := testMesh(t)
	r, _ := NewRasterizer(m, 16, 8)
	if _, err := r.Render(make([]float64, 3), OkuboWeissMap(), Normalizer{0, 1}); err == nil {
		t.Error("mis-sized field accepted")
	}
	if _, err := r.Render(make([]float64, m.NCells()), nil, Normalizer{0, 1}); err == nil {
		t.Error("nil colormap accepted")
	}
	if err := r.RenderOwnedInto(r.NewFrame(), make([]float64, m.NCells()), OkuboWeissMap(), Normalizer{0, 1}, make([]bool, 2)); err == nil {
		t.Error("mis-sized ownership accepted")
	}
}

func TestParallelRenderCompositeMatchesSerial(t *testing.T) {
	m := testMesh(t)
	r, err := NewRasterizer(m, 60, 30)
	if err != nil {
		t.Fatal(err)
	}
	field := make([]float64, m.NCells())
	for ci := range field {
		field[ci] = math.Sin(3 * m.Cells[ci].Lon)
	}
	cm := OkuboWeissMap()
	n := SymmetricRange(field)

	serial, err := r.Render(field, cm, n)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.New(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	masks := part.Masks()
	partials := make([]*image.RGBA, len(masks))
	for rank, mask := range masks {
		partials[rank] = r.NewFrame()
		if err := r.RenderOwnedInto(partials[rank], field, cm, n, mask); err != nil {
			t.Fatal(err)
		}
	}
	composed := r.NewFrame()
	// Pre-poison the destination: CompositeInto must overwrite every pixel.
	for i := range composed.Pix {
		composed.Pix[i] = 0xAB
	}
	if err := CompositeInto(composed, partials); err != nil {
		t.Fatal(err)
	}
	if !FullyOpaque(composed) {
		t.Error("composited image has holes")
	}
	for i := range serial.Pix {
		if serial.Pix[i] != composed.Pix[i] {
			t.Fatalf("composited image differs from serial render at byte %d", i)
		}
	}
}

func TestCompositeValidation(t *testing.T) {
	a := image.NewRGBA(image.Rect(0, 0, 4, 4))
	b := image.NewRGBA(image.Rect(0, 0, 5, 4))
	dst := image.NewRGBA(image.Rect(0, 0, 4, 4))
	if err := CompositeInto(dst, nil); err == nil {
		t.Error("empty composite accepted")
	}
	if err := CompositeInto(nil, []*image.RGBA{a}); err == nil {
		t.Error("nil destination accepted")
	}
	if err := CompositeInto(dst, []*image.RGBA{a, b}); err == nil {
		t.Error("mismatched bounds accepted")
	}
	if err := CompositeInto(dst, []*image.RGBA{a, nil}); err == nil {
		t.Error("nil partial accepted")
	}
}

func TestEncodePNG(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 8, 8))
	data, err := EncodePNG(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 || string(data[1:4]) != "PNG" {
		t.Errorf("not a PNG: % x", data[:8])
	}
}

func TestCinemaDB(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cinema")
	db, err := NewCinemaDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := NewPipelinedCinemaWriter(db, 1)
	defer w.Close()
	img := image.NewRGBA(image.Rect(0, 0, 16, 8))
	for _, simTime := range []float64{3600, 7200} {
		if err := w.Submit(img, simTime, 0, 0, "okubo_weiss"); err != nil {
			t.Fatal(err)
		}
	}
	written, total, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 || written[0].Bytes <= 0 || units.Bytes(written[0].Bytes+written[1].Bytes) != total {
		t.Fatalf("Flush = %+v totalling %v", written, total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteIndex(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, cinemastore.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := cinemastore.DecodeIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("index has %d entries, want 2", len(entries))
	}
	if entries[0].Time != 3600 || entries[1].Time != 7200 {
		t.Errorf("index times: %v, %v", entries[0].Time, entries[1].Time)
	}
	if got := units.Bytes(entries[0].Bytes + entries[1].Bytes); got != total {
		t.Errorf("indexed bytes = %v, want %v", got, total)
	}
	// Errors (a nil image or empty field is refused at Submit:
	// TestPipelinedWriterErrors).
	if _, err := NewCinemaDB(""); err == nil {
		t.Error("empty dir accepted")
	}
}

func BenchmarkRender(b *testing.B) {
	m, err := mesh.NewIcosphere(4, mesh.EarthRadius)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRasterizer(m, 400, 200)
	if err != nil {
		b.Fatal(err)
	}
	field := make([]float64, m.NCells())
	for ci := range field {
		field[ci] = math.Sin(2*m.Cells[ci].Lat) * math.Cos(3*m.Cells[ci].Lon)
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

func TestPSNR(t *testing.T) {
	a := image.NewRGBA(image.Rect(0, 0, 8, 8))
	b := image.NewRGBA(image.Rect(0, 0, 8, 8))
	for i := range a.Pix {
		a.Pix[i] = 100
		b.Pix[i] = 100
	}
	p, err := PSNR(a, b)
	if err != nil || !math.IsInf(p, 1) {
		t.Errorf("identical PSNR = %v (%v), want +Inf", p, err)
	}
	// A single-level difference everywhere: MSE = 1 -> PSNR ~ 48.13 dB.
	for i := range b.Pix {
		b.Pix[i] = 101
	}
	p, err = PSNR(a, b)
	if err != nil || math.Abs(p-48.13) > 0.01 {
		t.Errorf("PSNR = %v (%v), want ~48.13", p, err)
	}
	// Bigger differences mean lower PSNR.
	for i := range b.Pix {
		b.Pix[i] = 150
	}
	p2, _ := PSNR(a, b)
	if p2 >= p {
		t.Errorf("PSNR did not drop: %v vs %v", p2, p)
	}
	if _, err := PSNR(nil, b); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := PSNR(a, image.NewRGBA(image.Rect(0, 0, 4, 4))); err == nil {
		t.Error("mismatched bounds accepted")
	}
	if _, err := PSNR(image.NewRGBA(image.Rect(0, 0, 0, 0)), image.NewRGBA(image.Rect(0, 0, 0, 0))); err == nil {
		t.Error("empty images accepted")
	}
}

func TestFillTransparent(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 4, 1))
	img.SetRGBA(1, 0, color.RGBA{R: 10, G: 20, B: 30, A: 255})
	FillTransparent(img, color.RGBA{R: 1, G: 2, B: 3, A: 255})
	if got := img.RGBAAt(0, 0); got != (color.RGBA{R: 1, G: 2, B: 3, A: 255}) {
		t.Errorf("transparent pixel = %v", got)
	}
	if got := img.RGBAAt(1, 0); got != (color.RGBA{R: 10, G: 20, B: 30, A: 255}) {
		t.Errorf("opaque pixel overwritten: %v", got)
	}
}

func TestResizeNearest(t *testing.T) {
	src := image.NewRGBA(image.Rect(0, 0, 4, 4))
	// Left half red, right half blue.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			c := color.RGBA{R: 255, A: 255}
			if x >= 2 {
				c = color.RGBA{B: 255, A: 255}
			}
			src.SetRGBA(x, y, c)
		}
	}
	small, err := ResizeNearest(src, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.RGBAAt(0, 0).R != 255 || small.RGBAAt(1, 1).B != 255 {
		t.Errorf("downscale wrong: %v %v", small.RGBAAt(0, 0), small.RGBAAt(1, 1))
	}
	big, err := ResizeNearest(small, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if big.RGBAAt(0, 0).R != 255 || big.RGBAAt(7, 7).B != 255 {
		t.Errorf("upscale wrong")
	}
	if _, err := ResizeNearest(nil, 2, 2); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := ResizeNearest(src, 0, 2); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := ResizeNearest(image.NewRGBA(image.Rect(0, 0, 0, 0)), 2, 2); err == nil {
		t.Error("empty source accepted")
	}
}
