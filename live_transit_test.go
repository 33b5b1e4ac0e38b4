package insituviz

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"insituviz/internal/faults"
	"insituviz/internal/intransit"
	"insituviz/internal/leakcheck"
	"insituviz/internal/livemodel"
	"insituviz/internal/telemetry"
)

// startTransitWorkers brings up n in-process viz workers writing into
// outDir's cinema directory — the same directory the live run commits its
// index over — and returns their addresses plus an idempotent teardown.
// Callers must defer the teardown after the leak check so the accept
// loops are drained before goroutines are counted.
func startTransitWorkers(t *testing.T, n int, outDir string) ([]string, func()) {
	t.Helper()
	addrs := make([]string, n)
	var closers []func()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		w, err := intransit.NewWorker(ln, intransit.WorkerConfig{
			OutDir:    filepath.Join(outDir, "cinema"),
			Telemetry: telemetry.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		served := make(chan error, 1)
		go func() { served <- w.Serve() }()
		closers = append(closers, func() {
			w.Close()
			<-served
		})
		addrs[i] = w.Addr()
	}
	var once sync.Once
	return addrs, func() {
		once.Do(func() {
			for _, c := range closers {
				c()
			}
		})
	}
}

// transitLiveConfig is the shared run shape for the transport comparison
// tests: small enough to be quick, but with every frame kind enabled —
// composited equirect, ortho views, and the thresholded eddy-core frame.
func transitLiveConfig(outDir string, reg *telemetry.Registry) LiveConfig {
	return LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2,
		Steps:            32,
		SampleEverySteps: 8,
		OutputDir:        outDir,
		ImageWidth:       64,
		ImageHeight:      32,
		RenderRanks:      4,
		OrthoViews:       2,
		EddyCoreImages:   true,
		Telemetry:        reg,
	}
}

// readStore loads every file under dir's cinema directory keyed by its
// relative path, so two stores can be compared byte for byte.
func readStore(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	root := filepath.Join(dir, "cinema")
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = b
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	return files
}

// requireIdenticalStores is the in-transit correctness contract: the
// committed Cinema database — index and every frame — must not depend on
// the transport that produced it.
func requireIdenticalStores(t *testing.T, inprocDir, tcpDir string) {
	t.Helper()
	inproc, tcp := readStore(t, inprocDir), readStore(t, tcpDir)
	if len(inproc) == 0 {
		t.Fatal("inproc store is empty")
	}
	for rel, want := range inproc {
		got, ok := tcp[rel]
		if !ok {
			t.Errorf("tcp store missing %s", rel)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between transports (%d vs %d bytes)", rel, len(want), len(got))
		}
	}
	for rel := range tcp {
		if _, ok := inproc[rel]; !ok {
			t.Errorf("tcp store has extra file %s", rel)
		}
	}
}

// TestLiveTransitByteIdentity runs the same seeded configuration through
// the in-process renderer and through two TCP viz workers, and requires
// the two committed stores to be byte-identical — for both pipelines and
// every combination of frame kinds, since all of them go through the one
// shared sample renderer. It also pins the acceptance bound on wire
// compression: the shipped bytes must be at most 70% of the float64 field
// volume they stand in for.
func TestLiveTransitByteIdentity(t *testing.T) {
	for _, mode := range []Kind{InSitu, PostProcessing} {
		for _, frames := range []struct {
			ortho int
			cores bool
		}{{0, false}, {2, false}, {0, true}, {2, true}} {
			t.Run(fmt.Sprintf("%v/ortho%d/cores=%v", mode, frames.ortho, frames.cores), func(t *testing.T) {
				defer leakcheck.Check(t)()
				shape := func(dir string, reg *telemetry.Registry) LiveConfig {
					cfg := transitLiveConfig(dir, reg)
					cfg.Mode, cfg.OrthoViews, cfg.EddyCoreImages = mode, frames.ortho, frames.cores
					return cfg
				}

				inprocDir := t.TempDir()
				if _, err := LiveRun(shape(inprocDir, telemetry.NewRegistry())); err != nil {
					t.Fatalf("inproc run: %v", err)
				}

				tcpDir := t.TempDir()
				tcpReg := telemetry.NewRegistry()
				cfg := shape(tcpDir, tcpReg)
				cfg.Transport = "tcp"
				var closeWorkers func()
				cfg.VizWorkers, closeWorkers = startTransitWorkers(t, 2, tcpDir)
				defer closeWorkers()
				res, err := LiveRun(cfg)
				if err != nil {
					t.Fatalf("tcp run: %v", err)
				}
				if res.Images == 0 {
					t.Fatal("tcp run committed no images")
				}
				if res.DroppedSamples != 0 {
					t.Fatalf("clean tcp run dropped %d samples", res.DroppedSamples)
				}

				requireIdenticalStores(t, inprocDir, tcpDir)

				raw := tcpReg.Counter("transit.bytes.raw").Value()
				wire := tcpReg.Counter("transit.bytes.wire").Value()
				if raw == 0 || wire == 0 {
					t.Fatalf("byte counters not populated: raw=%d wire=%d", raw, wire)
				}
				ratio := tcpReg.FloatGauge("transit.compression.ratio").Value()
				if ratio <= 0 || ratio > 0.7 {
					t.Errorf("compression ratio %.3f, want in (0, 0.7]", ratio)
				}
				if got := float64(wire) / float64(raw); got > 0.7 {
					t.Errorf("wire/raw = %.3f, want <= 0.7", got)
				}
			})
		}
	}
}

// TestLiveVizFramesArePaletted runs bench's live_viz shape (642 cells,
// a sample every step, four ortho views and the eddy-core frame; fewer
// steps and pixels) and requires what the frame format promises of it:
// every committed frame is flat-shaded from at most 256 opaque colours, so
// every one is stored index-colour, and the store still verifies end to
// end under cinemaverify.
func TestLiveVizFramesArePaletted(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	cfg := transitLiveConfig(dir, telemetry.NewRegistry())
	cfg.MeshSubdivisions, cfg.Steps, cfg.SampleEverySteps = 3, 6, 1
	cfg.ImageWidth, cfg.ImageHeight, cfg.OrthoViews = 96, 48, 4
	res, err := LiveRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for rel, data := range readStore(t, dir) {
		if filepath.Ext(rel) != ".png" {
			continue
		}
		frames++
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		if _, ok := img.(*image.Paletted); !ok {
			t.Errorf("%s decodes as %T, want *image.Paletted", rel, img)
		}
	}
	if frames == 0 || frames != res.Images {
		t.Fatalf("store holds %d frames, run reported %d", frames, res.Images)
	}
	if testing.Short() {
		return
	}
	out, err := exec.Command("go", "run", "./cmd/cinemaverify", filepath.Join(dir, "cinema")).CombinedOutput()
	if err != nil {
		t.Fatalf("cinemaverify: %v\n%s", err, out)
	}
}

// TestLiveTransitChaos runs the tcp transport under the "transit" fault
// profile — dropped sends, injected wire delay, and a worker partition —
// and requires the run to finish with zero client-visible errors and zero
// dropped samples: every fault is absorbed by reconnect-with-resume or
// failover, and the committed store is still byte-identical to a clean
// in-process run of the same configuration. The chaos run goes twice with
// a live model attached: with samples in flight on both workers, settling
// in sequence order must still make the fault logs, the model's anomaly
// logs and the run's accounting identical across the runs, and the eddy
// census and tracks those of the in-process run.
func TestLiveTransitChaos(t *testing.T) {
	defer leakcheck.Check(t)()

	inprocDir := t.TempDir()
	inproc, err := LiveRun(transitLiveConfig(inprocDir, telemetry.NewRegistry()))
	if err != nil {
		t.Fatalf("inproc run: %v", err)
	}

	type outcome struct {
		res                *LiveResult
		faultLog, modelLog []byte
	}
	run := func() outcome {
		plan, err := faults.Profile("transit", 11)
		if err != nil {
			t.Fatalf("faults.Profile: %v", err)
		}
		in, err := faults.New(plan)
		if err != nil {
			t.Fatalf("faults.New: %v", err)
		}
		tcpDir := t.TempDir()
		reg := telemetry.NewRegistry()
		cfg := transitLiveConfig(tcpDir, reg)
		cfg.Transport = "tcp"
		var closeWorkers func()
		cfg.VizWorkers, closeWorkers = startTransitWorkers(t, 2, tcpDir)
		defer closeWorkers()
		cfg.Faults = in
		cfg.Model = livemodel.New(livemodel.Config{Window: 256, Damping: 1e-9})
		res, err := LiveRun(cfg)
		if err != nil {
			t.Fatalf("chaos tcp run: %v", err)
		}
		if res.DroppedSamples != 0 || res.DroppedFrames != 0 {
			t.Fatalf("chaos run dropped %d samples / %d frames, want none",
				res.DroppedSamples, res.DroppedFrames)
		}
		if got := reg.Counter("transit.reconnects").Value(); got == 0 {
			t.Error("transit.reconnects = 0, want > 0 under the transit profile")
		}
		if got := reg.Counter("transit.faults.drop").Value(); got == 0 {
			t.Error("transit.faults.drop = 0, want > 0 under the transit profile")
		}
		if ratio := reg.FloatGauge("transit.compression.ratio").Value(); ratio <= 0 || ratio > 0.7 {
			t.Errorf("compression ratio %.3f, want in (0, 0.7]", ratio)
		}
		requireIdenticalStores(t, inprocDir, tcpDir)

		var f, m bytes.Buffer
		if err := in.WriteLog(&f); err != nil {
			t.Fatal(err)
		}
		if err := res.Model.WriteLog(&m); err != nil {
			t.Fatal(err)
		}
		return outcome{res: res, faultLog: f.Bytes(), modelLog: m.Bytes()}
	}
	a, b := run(), run()

	if len(a.faultLog) == 0 || !bytes.Equal(a.faultLog, b.faultLog) {
		t.Errorf("fault logs differ or are empty:\n--- run A ---\n%s--- run B ---\n%s", a.faultLog, b.faultLog)
	}
	if !bytes.Equal(a.modelLog, b.modelLog) {
		t.Errorf("model anomaly logs differ:\n--- run A ---\n%s--- run B ---\n%s", a.modelLog, b.modelLog)
	}
	type accounting struct {
		Images          int
		ImageBytes      Bytes
		EddiesPerSample []int
		Tracks          int
		DroppedSamples  int
	}
	of := func(r *LiveResult) accounting {
		return accounting{r.Images, r.ImageBytes, r.EddiesPerSample, r.Tracks, r.DroppedSamples}
	}
	if !reflect.DeepEqual(of(a.res), of(b.res)) {
		t.Errorf("accounting differs between runs: %+v vs %+v", of(a.res), of(b.res))
	}
	if !reflect.DeepEqual(a.res.EddiesPerSample, inproc.EddiesPerSample) ||
		a.res.Tracks != inproc.Tracks || a.res.DroppedSamples != inproc.DroppedSamples {
		t.Errorf("eddies, tracks or drops differ from the in-process run: %+v vs %+v", of(a.res), of(inproc))
	}
}
