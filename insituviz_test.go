package insituviz

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insituviz/internal/cinemastore"
	"insituviz/internal/ncfile"
	"insituviz/internal/provenance"
	"insituviz/internal/render"
)

func TestReproduceStudy(t *testing.T) {
	st, err := ReproduceStudy(CaddyPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Characterization.Points) != 6 {
		t.Fatalf("points = %d", len(st.Characterization.Points))
	}
	// Headline results of the paper's abstract: the in-situ pipeline runs
	// ~51% faster, uses ~50% less energy, and ~99.5% less disk at the
	// 8-hour sampling rate, while power stays flat.
	post, ok1 := st.Characterization.Find(PostProcessing, Hours(8))
	insitu, ok2 := st.Characterization.Find(InSitu, Hours(8))
	if !ok1 || !ok2 {
		t.Fatal("missing 8h configurations")
	}
	timeSaving := 1 - float64(insitu.Time)/float64(post.Time)
	if timeSaving < 0.45 || timeSaving > 0.58 {
		t.Errorf("time saving = %.1f%%, paper says 51%%", timeSaving*100)
	}
	energySaving := 1 - float64(insitu.Energy)/float64(post.Energy)
	if energySaving < 0.45 || energySaving > 0.58 {
		t.Errorf("energy saving = %.1f%%, paper says 50%%", energySaving*100)
	}
	storageSaving := 1 - float64(insitu.Storage)/float64(post.Storage)
	if storageSaving < 0.995 {
		t.Errorf("storage saving = %.3f%%, paper says > 99.5%%", storageSaving*100)
	}
	powerDiff := math.Abs(float64(post.Power-insitu.Power)) / float64(insitu.Power)
	if powerDiff > 0.03 {
		t.Errorf("power difference = %.2f%%, paper says none", powerDiff*100)
	}
	// Model validation matches the paper's <0.5% absolute error.
	if st.Validation.MaxAPE > 0.5 {
		t.Errorf("model max APE = %.3f%%", st.Validation.MaxAPE)
	}
	if math.Abs(st.Model.Alpha-6.25) > 0.3 || math.Abs(st.Model.Beta-1.2) > 0.1 {
		t.Errorf("model coefficients = (%.3g, %.3g), want ~(6.25, 1.2)", st.Model.Alpha, st.Model.Beta)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if Hours(2) != 7200 || Minutes(1) != 60 || Days(1) != 86400 || Years(1) != 365*86400 {
		t.Error("time helpers wrong")
	}
	if Gigabytes(1) != 1e9 || Terabytes(1) != 1e12 {
		t.Error("size helpers wrong")
	}
	w := ReferenceWorkload(Hours(8))
	if w.Outputs() != 540 {
		t.Errorf("reference outputs = %d", w.Outputs())
	}
	if _, err := RunPipeline(InSitu, w, CaddyPlatform()); err != nil {
		t.Fatal(err)
	}
}

// TestLiveRunReleasesManifestDescriptor pins that a finished LiveRun holds
// no descriptor on its provenance ledger: the first index commit opens
// manifest.log, and only the store writer's CloseLedger releases it.
func TestLiveRunReleasesManifestDescriptor(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LiveRun(LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2,
		Steps:            16,
		SampleEverySteps: 8,
		OutputDir:        dir,
		ImageWidth:       64,
		ImageHeight:      32,
		RenderRanks:      2,
	}); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "cinema", provenance.ManifestFile)
	if _, err := os.Stat(manifest); err != nil {
		t.Fatalf("the run committed no ledger: %v", err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == manifest {
			t.Errorf("fd %s still open on %s after LiveRun returned", fd.Name(), manifest)
		}
	}
}

func TestLiveRunValidation(t *testing.T) {
	if _, err := LiveRun(LiveConfig{}); err == nil {
		t.Error("missing output dir accepted")
	}
	if _, err := LiveRun(LiveConfig{OutputDir: t.TempDir(), Steps: -1}); err == nil {
		t.Error("negative steps accepted")
	}
	if _, err := LiveRun(LiveConfig{OutputDir: t.TempDir(), Mode: Kind(9), Steps: 1, SampleEverySteps: 1, MeshSubdivisions: 1}); err == nil {
		t.Error("unknown mode accepted")
	}
	// The rig has six cameras: a view count outside [0, 6] is an error
	// naming it, not a silent clamp.
	for _, n := range []int{-3, -1, len(render.DefaultCameraSet()) + 1, 9} {
		dir := t.TempDir()
		_, err := LiveRun(LiveConfig{OutputDir: dir, Steps: 1, SampleEverySteps: 1, MeshSubdivisions: 1, OrthoViews: n})
		if err == nil || !strings.Contains(err.Error(), "OrthoViews") {
			t.Errorf("OrthoViews %d: error %v, want one naming OrthoViews", n, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "cinema")); err == nil {
			t.Errorf("OrthoViews %d: a refused run created a store", n)
		}
	}
}

// TestLiveRunWriteErrorAtItsSample: a frame write that fails — here a
// directory squats on the third sample's composite frame name — fails the
// run at that sample even though samples settle a step behind their
// render: no index is committed, and no later sample's frame is written.
func TestLiveRunWriteErrorAtItsSample(t *testing.T) {
	cfg := LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2,
		Steps:            48,
		SampleEverySteps: 8,
		ImageWidth:       64,
		ImageHeight:      32,
		RenderRanks:      2,
	}
	clean := cfg
	clean.OutputDir = t.TempDir()
	if _, err := LiveRun(clean); err != nil {
		t.Fatal(err)
	}
	st, err := cinemastore.Open(filepath.Join(clean.OutputDir, "cinema"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 6 {
		t.Fatalf("clean run stored %d frames, want 6", st.Len())
	}
	third := st.EntryAt(2)

	cfg.OutputDir = t.TempDir()
	cinema := filepath.Join(cfg.OutputDir, "cinema")
	if err := os.MkdirAll(filepath.Join(cinema, third.File), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err = LiveRun(cfg)
	if err == nil || !strings.Contains(err.Error(), "rename "+third.File) {
		t.Fatalf("LiveRun = %v, want the rename error of %s", err, third.File)
	}
	if _, err := os.Stat(filepath.Join(cinema, cinemastore.IndexFile)); !os.IsNotExist(err) {
		t.Errorf("an index was committed after the failed sample (stat: %v)", err)
	}
	for i := 3; i < st.Len(); i++ {
		if _, err := os.Stat(filepath.Join(cinema, st.EntryAt(i).File)); !os.IsNotExist(err) {
			t.Errorf("sample %d's frame %s was written after sample 3 failed (stat: %v)", i+1, st.EntryAt(i).File, err)
		}
	}
}

func TestLiveRunInSitu(t *testing.T) {
	dir := t.TempDir()
	res, err := LiveRun(LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2, // 162 cells: fast
		Steps:            24,
		SampleEverySteps: 8,
		OutputDir:        dir,
		ImageWidth:       96,
		ImageHeight:      48,
		RenderRanks:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 3 || res.Images != 3 {
		t.Errorf("samples = %d, images = %d, want 3 each", res.Samples, res.Images)
	}
	if res.ImageBytes <= 0 {
		t.Error("no image bytes written")
	}
	if res.RawBytes != 0 {
		t.Error("in-situ mode wrote raw dumps")
	}
	if res.MaxVelocity <= 0 || res.MaxVelocity > 300 {
		t.Errorf("max velocity = %v", res.MaxVelocity)
	}
	// The Cinema database must exist and index all images.
	st, err := cinemastore.Open(filepath.Join(dir, "cinema"))
	if err != nil {
		t.Fatal(err)
	}
	entries := st.Entries()
	if len(entries) != 3 {
		t.Errorf("cinema index has %d entries", len(entries))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, "cinema", e.File))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 8 || string(data[1:4]) != "PNG" {
			t.Errorf("%s is not a PNG", e.File)
		}
	}
	if len(res.EddiesPerSample) != 3 {
		t.Errorf("eddy census has %d samples", len(res.EddiesPerSample))
	}
}

func TestLiveRunPostProcessing(t *testing.T) {
	dir := t.TempDir()
	res, err := LiveRun(LiveConfig{
		Mode:             PostProcessing,
		MeshSubdivisions: 2,
		Steps:            16,
		SampleEverySteps: 8,
		OutputDir:        dir,
		ImageWidth:       96,
		ImageHeight:      48,
		RenderRanks:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 2 || res.Images != 2 {
		t.Errorf("samples = %d, images = %d", res.Samples, res.Images)
	}
	if res.RawBytes <= 0 {
		t.Error("no raw dumps written")
	}
	// Raw dumps dominate images in size, the core asymmetry of the study:
	// here each dump is 3 doubles per cell while a PNG is tiny.
	if res.RawBytes < res.ImageBytes {
		t.Logf("note: raw %v vs images %v (small grid)", res.RawBytes, res.ImageBytes)
	}
	// The dumps must be genuine netCDF files that decode.
	matches, err := filepath.Glob(filepath.Join(dir, "raw", "*.nc"))
	if err != nil || len(matches) != 2 {
		t.Fatalf("raw dumps = %v (%v)", matches, err)
	}
	f, err := ncfile.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.VarID("okuboWeiss"); err != nil {
		t.Error("dump missing okuboWeiss variable")
	}
	if _, err := f.VarID("latCell"); err != nil {
		t.Error("dump missing latCell variable")
	}
}

func TestLiveRunModesProduceSameImages(t *testing.T) {
	// In-situ and post-processing visualize the same physics; with
	// identical configuration the rendered images must be byte-identical —
	// the "cognitive fidelity" equivalence the paper's abstract claims.
	mk := func(mode Kind) []byte {
		dir := t.TempDir()
		_, err := LiveRun(LiveConfig{
			Mode:             mode,
			MeshSubdivisions: 2,
			Steps:            8,
			SampleEverySteps: 8,
			OutputDir:        dir,
			ImageWidth:       64,
			ImageHeight:      32,
			RenderRanks:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := cinemastore.Open(filepath.Join(dir, "cinema"))
		if err != nil || st.Len() != 1 {
			t.Fatalf("index = %v (%v)", st, err)
		}
		entries := st.Entries()
		data, err := os.ReadFile(filepath.Join(dir, "cinema", entries[0].File))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := mk(InSitu)
	b := mk(PostProcessing)
	if len(a) != len(b) {
		t.Fatalf("image sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("images differ at byte %d", i)
		}
	}
}

func TestLiveRunOrthoViews(t *testing.T) {
	dir := t.TempDir()
	res, err := LiveRun(LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2,
		Steps:            8,
		SampleEverySteps: 8,
		OutputDir:        dir,
		ImageWidth:       64,
		ImageHeight:      32,
		RenderRanks:      2,
		OrthoViews:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One equirectangular image plus three globe views per sample.
	if res.Images != 4 {
		t.Errorf("images = %d, want 4 (1 map + 3 views)", res.Images)
	}
	st, err := cinemastore.Open(filepath.Join(dir, "cinema"))
	if err != nil {
		t.Fatal(err)
	}
	entries := st.Entries()
	fields := map[string]int{}
	for _, e := range entries {
		fields[e.Variable]++
	}
	if fields["okubo_weiss"] != 1 || fields["okubo_weiss_view0"] != 1 || fields["okubo_weiss_view2"] != 1 {
		t.Errorf("cinema fields = %v", fields)
	}
}

func TestLiveRunEddyCoreImages(t *testing.T) {
	dir := t.TempDir()
	res, err := LiveRun(LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2,
		Steps:            16,
		SampleEverySteps: 8,
		OutputDir:        dir,
		ImageWidth:       64,
		ImageHeight:      32,
		RenderRanks:      2,
		EddyCoreImages:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cinemastore.Open(filepath.Join(dir, "cinema"))
	if err != nil {
		t.Fatal(err)
	}
	entries := st.Entries()
	fields := map[string]int{}
	for _, e := range entries {
		fields[e.Variable]++
	}
	if fields["okubo_weiss"] != 2 {
		t.Errorf("base images = %d, want 2", fields["okubo_weiss"])
	}
	if fields["okubo_weiss_cores"] != 2 {
		t.Errorf("core images = %d, want 2", fields["okubo_weiss_cores"])
	}
	if res.Images != 4 {
		t.Errorf("total images = %d, want 4", res.Images)
	}
	if res.HaloBytesPerField <= 0 {
		t.Errorf("halo bytes = %v", res.HaloBytesPerField)
	}
}

func TestFacadeInTransit(t *testing.T) {
	w := ReferenceWorkload(Hours(72))
	p := CaddyPlatform()
	p.StagingNodes = 50
	m, err := RunPipeline(InTransit, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != InTransit {
		t.Errorf("kind = %v", m.Kind)
	}
	if m.Kind.String() != "in-transit" {
		t.Errorf("kind name = %q", m.Kind.String())
	}
	if m.Outputs != 60 {
		t.Errorf("outputs = %d", m.Outputs)
	}
}

// TestLiveCoupledTelemetryInSitu exercises the tentpole contract of the
// telemetry subsystem: a live coupled run must account for its own phases —
// nonzero step, render, and copy counters whose values agree with the
// independently computed LiveResult fields.
func TestLiveCoupledTelemetryInSitu(t *testing.T) {
	res, err := LiveRun(LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2,
		Steps:            24,
		SampleEverySteps: 8,
		OutputDir:        t.TempDir(),
		ImageWidth:       96,
		ImageHeight:      48,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("LiveResult.Telemetry is nil")
	}
	if got := snap.Counters["ocean.steps"]; got != int64(res.Steps) {
		t.Errorf("ocean.steps = %d, want %d", got, res.Steps)
	}
	if got := snap.Counters["render.frames"]; got != int64(res.Images) {
		t.Errorf("render.frames = %d, want %d", got, res.Images)
	}
	if got := snap.Counters["render.encoded.bytes"]; got != int64(res.ImageBytes) {
		t.Errorf("render.encoded.bytes = %d, want %d", got, res.ImageBytes)
	}
	if got := snap.Counters["catalyst.invocations"]; got != int64(res.Samples) {
		t.Errorf("catalyst.invocations = %d, want %d", got, res.Samples)
	}
	if snap.Counters["catalyst.copied.bytes"] <= 0 {
		t.Error("catalyst.copied.bytes is zero")
	}
	// The reuse contract: every invocation after the first serves the
	// retained snapshot buffer.
	if got := snap.Counters["catalyst.reuse.hits"]; got != int64(res.Samples-1) {
		t.Errorf("catalyst.reuse.hits = %d, want %d", got, res.Samples-1)
	}
	// Phase timers: every step and every sampling point is timed.
	st, ok := snap.Histograms["ocean.step.time"]
	if !ok {
		t.Fatal("ocean.step.time histogram missing")
	}
	if st.Count != int64(res.Steps) || st.Sum <= 0 {
		t.Errorf("ocean.step.time count %d sum %g, want %d steps and a positive sum", st.Count, st.Sum, res.Steps)
	}
	sv := snap.Histograms["live.sample.time"]
	if sv.Count != int64(res.Samples) || sv.Sum <= 0 {
		t.Errorf("live.sample.time count %d sum %g, want %d samples and a positive sum", sv.Count, sv.Sum, res.Samples)
	}
	// The frame-size histogram saw every encoded frame.
	hv := snap.Histograms["render.frame.bytes"]
	if hv.Count != int64(res.Images) {
		t.Errorf("render.frame.bytes count = %d, want %d", hv.Count, res.Images)
	}
	if hv.Sum != float64(res.ImageBytes) {
		t.Errorf("render.frame.bytes sum = %g, want %d", hv.Sum, res.ImageBytes)
	}
	// In-situ writes no raw dumps, and the mode's defining counters say so.
	if snap.Counters["live.raw.bytes"] != 0 {
		t.Errorf("live.raw.bytes = %d in in-situ mode", snap.Counters["live.raw.bytes"])
	}
}

// TestLiveCoupledTelemetryPost checks the post-processing side: the dump
// and readback traffic is accounted and matches LiveResult.RawBytes.
func TestLiveCoupledTelemetryPost(t *testing.T) {
	res, err := LiveRun(LiveConfig{
		Mode:             PostProcessing,
		MeshSubdivisions: 2,
		Steps:            16,
		SampleEverySteps: 8,
		OutputDir:        t.TempDir(),
		ImageWidth:       96,
		ImageHeight:      48,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("LiveResult.Telemetry is nil")
	}
	if got := snap.Counters["live.raw.bytes"]; got != int64(res.RawBytes) {
		t.Errorf("live.raw.bytes = %d, want %d", got, res.RawBytes)
	}
	if got := snap.Counters["live.raw.dumps"]; got != int64(res.Samples) {
		t.Errorf("live.raw.dumps = %d, want %d", got, res.Samples)
	}
	// Fig. 1a reads back exactly what it dumped.
	if got := snap.Counters["live.readback.bytes"]; got != int64(res.RawBytes) {
		t.Errorf("live.readback.bytes = %d, want %d", got, res.RawBytes)
	}
	if got := snap.Counters["render.frames"]; got != int64(res.Images) {
		t.Errorf("render.frames = %d, want %d", got, res.Images)
	}
	if got := snap.Counters["ocean.steps"]; got != int64(res.Steps) {
		t.Errorf("ocean.steps = %d, want %d", got, res.Steps)
	}
	// Post-processing mode has no catalyst adaptor in the loop.
	if snap.Counters["catalyst.invocations"] != 0 {
		t.Errorf("catalyst.invocations = %d in post mode", snap.Counters["catalyst.invocations"])
	}
}
