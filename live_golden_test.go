package insituviz

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"image"
	"image/draw"
	"image/png"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/faults"
	"insituviz/internal/leakcheck"
	"insituviz/internal/livemodel"
	"insituviz/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stores.json from this run")

const goldenStoresFile = "testdata/golden_stores.json"

// goldenStores pins what a live run commits at a handful of shapes. The
// pixels and the logs follow from the solver's bits, which are pinned per
// architecture (see TestSolverGoldenHash), so they are keyed by GOARCH.
// The encoded bytes also follow from the Go release's compress/flate, so
// the store's size, index root and manifest are keyed by Go minor version
// and GOARCH.
type goldenStores struct {
	Pixels map[string]map[string]goldenPixels `json:"pixels"` // GOARCH -> shape
	Bytes  map[string]map[string]goldenBytes  `json:"bytes"`  // "go1.N/GOARCH" -> shape
}

// goldenPixels is a store's content as its frames show it: the frame
// count, a SHA-256 over every frame's name, bounds and decoded RGBA pixels
// in index order, and the SHA-256 of the run's fault and model logs (the
// hash of nothing when the shape writes none).
type goldenPixels struct {
	Frames    int    `json:"frames"`
	PixelRoot string `json:"pixel_root"`
	FaultLog  string `json:"fault_log"`
	ModelLog  string `json:"model_log"`
}

// goldenBytes is a store as it lies on disk: the frames' total size, the
// Merkle root of their content addresses, and the SHA-256 of the
// provenance manifest, whose last record is the chain head.
type goldenBytes struct {
	StoredBytes int64  `json:"stored_bytes"`
	IndexRoot   string `json:"index_root"`
	Manifest    string `json:"manifest_sha256"`
}

// goldenShape is one pinned run: a LiveConfig on the default mesh, steps
// and image size, plus the chaos spec and model it runs with.
type goldenShape struct {
	name  string
	cfg   func(dir string) LiveConfig
	chaos string
	model bool
	tcp   bool
}

func goldenShapes() []goldenShape {
	base := func(dir string) LiveConfig { return LiveConfig{Mode: InSitu, OutputDir: dir} }
	return []goldenShape{
		{name: "insitu", cfg: base},
		{name: "post", cfg: func(dir string) LiveConfig {
			cfg := base(dir)
			cfg.Mode = PostProcessing
			return cfg
		}},
		{name: "ortho2-cores", cfg: func(dir string) LiveConfig {
			cfg := base(dir)
			cfg.OrthoViews, cfg.EddyCoreImages = 2, true
			return cfg
		}},
		{name: "chaos7-model", cfg: base, chaos: "seed=7", model: true},
		{name: "chaos7-storage", cfg: base, chaos: "seed=7,storage"},
		{name: "tcp", cfg: base, tcp: true},
	}
}

// runGoldenShape runs one shape into a fresh directory and measures what
// it committed.
func runGoldenShape(t *testing.T, sh goldenShape) (goldenPixels, goldenBytes) {
	t.Helper()
	dir := t.TempDir()
	cfg := sh.cfg(dir)
	cfg.Telemetry = telemetry.NewRegistry()
	var in *faults.Injector
	if sh.chaos != "" {
		plan, err := faults.ParseSpec(sh.chaos)
		if err != nil {
			t.Fatal(err)
		}
		if in, err = faults.New(plan); err != nil {
			t.Fatal(err)
		}
		cfg.Faults = in
	}
	if sh.model {
		cfg.Model = livemodel.New(livemodel.Config{Window: 256, Damping: 1e-9})
	}
	if sh.tcp {
		var closeWorkers func()
		cfg.Transport = "tcp"
		cfg.VizWorkers, closeWorkers = startTransitWorkers(t, 2, dir)
		defer closeWorkers()
	}
	res, err := LiveRun(cfg)
	if err != nil {
		t.Fatalf("%s: %v", sh.name, err)
	}

	var faultLog, modelLog bytes.Buffer
	if in != nil {
		if err := in.WriteLog(&faultLog); err != nil {
			t.Fatal(err)
		}
	}
	if res.Model != nil {
		if err := res.Model.WriteLog(&modelLog); err != nil {
			t.Fatal(err)
		}
	}

	st, err := cinemastore.Open(filepath.Join(dir, "cinema"))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "cinema", "manifest.log"))
	if err != nil {
		t.Fatal(err)
	}
	pix := sha256.New()
	for i := 0; i < st.Len(); i++ {
		e := st.EntryAt(i)
		data, err := st.ReadFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", e.File, err)
		}
		rgba := image.NewRGBA(img.Bounds())
		draw.Draw(rgba, rgba.Bounds(), img, img.Bounds().Min, draw.Src)
		pix.Write([]byte(e.File))
		binary.Write(pix, binary.LittleEndian, [2]int32{int32(rgba.Rect.Dx()), int32(rgba.Rect.Dy())})
		pix.Write(rgba.Pix)
	}
	if st.Len() != res.Images {
		t.Errorf("%s: store holds %d frames, run reported %d", sh.name, st.Len(), res.Images)
	}
	gp := goldenPixels{
		Frames:    st.Len(),
		PixelRoot: hex.EncodeToString(pix.Sum(nil)),
		FaultLog:  sha256Hex(faultLog.Bytes()),
		ModelLog:  sha256Hex(modelLog.Bytes()),
	}
	gb := goldenBytes{
		StoredBytes: st.TotalBytes(),
		IndexRoot:   cinemastore.EntriesRoot(st.Entries()).Hex(),
		Manifest:    sha256Hex(manifest),
	}
	return gp, gb
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goMinor is the running Go release without its patch level ("go1.24"),
// the key its encoded bytes are pinned under.
func goMinor() string {
	v := runtime.Version()
	if !strings.HasPrefix(v, "go") {
		return v
	}
	if parts := strings.SplitN(v, ".", 3); len(parts) >= 2 {
		return parts[0] + "." + parts[1]
	}
	return v
}

// TestLiveGoldenStores pins the committed stores of six live shapes in a
// reviewed file: default in situ, post-processing, two ortho views with
// the core frame, chaos seed 7 with the live model, chaos seed 7 with the
// storage profile, and tcp over two in-process viz workers. A refactor of
// the run may not move a pixel or a log line at any Go version, nor a
// stored byte at the Go versions the file names. Regenerate with
// `go test -run Golden -update` and review the diff.
func TestLiveGoldenStores(t *testing.T) {
	defer leakcheck.Check(t)()
	var golden goldenStores
	data, err := os.ReadFile(goldenStoresFile)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if data != nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("%s: %v", goldenStoresFile, err)
		}
	}
	byteKey := goMinor() + "/" + runtime.GOARCH
	wantPix, havePix := golden.Pixels[runtime.GOARCH]
	wantBytes, haveBytes := golden.Bytes[byteKey]
	gotPix := map[string]goldenPixels{}
	gotBytes := map[string]goldenBytes{}
	for _, sh := range goldenShapes() {
		gotPix[sh.name], gotBytes[sh.name] = runGoldenShape(t, sh)
	}

	if *updateGolden {
		if golden.Pixels == nil {
			golden.Pixels = map[string]map[string]goldenPixels{}
		}
		if golden.Bytes == nil {
			golden.Bytes = map[string]map[string]goldenBytes{}
		}
		golden.Pixels[runtime.GOARCH] = gotPix
		golden.Bytes[byteKey] = gotBytes
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStoresFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (pixels for %s, bytes for %s)", goldenStoresFile, runtime.GOARCH, byteKey)
		return
	}

	if !havePix {
		t.Skipf("%s pins no stores on %s; run with -update to record them", goldenStoresFile, runtime.GOARCH)
	}
	if !haveBytes {
		t.Logf("note: %s pins no stored bytes for %s; checking pixels and logs only", goldenStoresFile, byteKey)
	}
	for _, sh := range goldenShapes() {
		if got, want := gotPix[sh.name], wantPix[sh.name]; got != want {
			t.Errorf("%s: pixels and logs %+v, golden %+v", sh.name, got, want)
		}
		if !haveBytes {
			continue
		}
		if got, want := gotBytes[sh.name], wantBytes[sh.name]; got != want {
			t.Errorf("%s: stored bytes %+v, golden for %s %+v", sh.name, got, byteKey, want)
		}
	}
}
