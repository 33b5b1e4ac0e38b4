// Command liverun drives the real coupled stack from the command line: the
// shallow-water solver integrating the unstable-jet scenario, in-situ or
// post-processing visualization of the Okubo-Weiss field, Cinema image
// output, and eddy detection and tracking.
//
// Usage:
//
//	liverun -mode insitu -steps 360 -out /tmp/run
//	liverun -mode post -subdivisions 4 -ortho-views 6 -out /tmp/run
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"insituviz"
	"insituviz/internal/cinemaserve"
	"insituviz/internal/cinemastore"
	"insituviz/internal/cliobs"
	"insituviz/internal/report"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
	"insituviz/internal/units"
)

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// positiveFlags are the integer flags whose zero LiveConfig reads as "use
// the default": liverun rejects a non-positive value instead of running
// the default while reporting the value given.
var positiveFlags = []string{"steps", "sample-every", "subdivisions", "width", "height", "render-ranks"}

// checkPositive returns an error naming the first of positiveFlags whose
// value in fs is below 1.
func checkPositive(fs *flag.FlagSet) error {
	for _, name := range positiveFlags {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			return fmt.Errorf("-%s must be positive, got %d", name, v)
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("liverun: ")

	mode := flag.String("mode", "insitu", "pipeline: insitu or post")
	steps := flag.Int("steps", 240, "solver timesteps")
	sample := flag.Int("sample-every", 24, "visualize every N steps")
	subdiv := flag.Int("subdivisions", 3, "mesh refinement (10*4^n+2 cells)")
	width := flag.Int("width", 384, "image width")
	height := flag.Int("height", 192, "image height")
	ranks := flag.Int("render-ranks", 8, "parallel render ranks (RCB partition)")
	orthoViews := flag.Int("ortho-views", 0, "extra orthographic globe views per sample (0-6)")
	eddyCores := flag.Bool("eddy-cores", false, "additionally render the thresholded eddy-core frame per sample")
	transport := flag.String("transport", "inproc", "visualization transport: inproc renders in-process, tcp streams shards to -viz-workers")
	vizWorkers := flag.String("viz-workers", "", "comma-separated vizworker addresses for -transport tcp")
	transitCodec := flag.String("transit-codec", "", "on-wire codec for -transport tcp: flate (default) or raw")
	out := flag.String("out", "", "output directory (default: temp dir)")
	attribOut := flag.String("attrib", "", "write the per-phase energy attribution to this file (JSON, or CSV with a .csv suffix)")
	serveFor := flag.Duration("serve", 0, "after the run, keep serving the produced Cinema database under /cinema/ for this long (requires -http)")
	vizDeadline := flag.Float64("viz-deadline", 0, "per-sample visualization budget in seconds; injected stalls at or beyond it drop the sample's frames (0 = 0.5 s when -chaos is set)")
	faultlog := flag.String("faultlog", "", "write the byte-stable injected-fault log to this file (\"-\" for stdout; requires -chaos)")
	obs := cliobs.Register(flag.CommandLine, cliobs.Usage{
		Chaos: "arm deterministic fault injection",
		Trace: "write the run's timeline as Chrome trace-event JSON to this file (open in Perfetto)",
		HTTP:  "serve /metrics, /trace, and /cinema/ on this address during the run (e.g. :8080; \":0\" picks a port)",
	})
	flag.Parse()
	if err := checkPositive(flag.CommandLine); err != nil {
		log.Fatal(err)
	}

	stopProfile, err := obs.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			log.Fatal(err)
		}
	}()

	var kind insituviz.Kind
	switch *mode {
	case "insitu", "in-situ":
		kind = insituviz.InSitu
	case "post", "post-processing":
		kind = insituviz.PostProcessing
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	dir := *out
	if dir == "" {
		if dir, err = os.MkdirTemp("", "insituviz-live-"); err != nil {
			log.Fatal(err)
		}
	}

	injector, err := obs.Injector()
	if err != nil {
		log.Fatal(err)
	}
	if *faultlog != "" && injector == nil {
		log.Fatal("-faultlog requires -chaos")
	}
	est := obs.Estimator()

	// The tracer and (shared) registry exist whenever any observability
	// flag asks for them; -http additionally exposes both live while the
	// run executes.
	var tracer *trace.Tracer
	if obs.Trace != "" || *attribOut != "" || obs.HTTP != "" {
		tracer = trace.New(trace.Options{})
	}
	if *serveFor > 0 && obs.HTTP == "" {
		log.Fatal("-serve requires -http")
	}
	var reg *telemetry.Registry
	var cinemaSrv *cinemaserve.Server
	if obs.HTTP != "" {
		reg = telemetry.NewRegistry()
		// The Cinema query server shares the exposition: its registry is
		// namespaced under "serve." next to the run's own metrics, and its
		// request spans land on the same tracer. The run's database is
		// mounted once LiveRun returns; until then /cinema/ lists nothing.
		serveReg := telemetry.NewRegistry()
		cinemaSrv = cinemaserve.NewServer(cinemaserve.Config{Telemetry: serveReg, Tracer: tracer})
		union := telemetry.NewUnion().Add("", reg).Add("serve.", serveReg)
		mux := http.NewServeMux()
		mux.Handle("/", trace.NewHandlerFrom(union, tracer, cliobs.ModelEndpoints(est)...))
		mux.Handle("/cinema/", http.StripPrefix("/cinema", cinemaSrv.Handler()))
		addr, shutdown, err := trace.Serve(obs.HTTP, mux)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		endpoints := "/metrics, /trace, /cinema/"
		if est != nil {
			endpoints += ", /model"
		}
		fmt.Printf("serving live exposition on http://%s/ (%s)\n", addr, endpoints)
	}

	res, err := insituviz.LiveRun(insituviz.LiveConfig{
		Mode:             kind,
		MeshSubdivisions: *subdiv,
		Steps:            *steps,
		SampleEverySteps: *sample,
		OutputDir:        dir,
		ImageWidth:       *width,
		ImageHeight:      *height,
		RenderRanks:      *ranks,
		OrthoViews:       *orthoViews,
		EddyCoreImages:   *eddyCores,
		Transport:        *transport,
		VizWorkers:       splitAddrs(*vizWorkers),
		TransitCodec:     *transitCodec,
		Telemetry:        reg,
		Tracer:           tracer,
		Faults:           injector,
		VizDeadline:      units.Seconds(*vizDeadline),
		Model:            est,
	})
	if err != nil {
		log.Fatal(err)
	}

	if cinemaSrv != nil {
		st, err := cinemastore.Open(filepath.Join(dir, "cinema"))
		if err != nil {
			log.Fatal(err)
		}
		if err := cinemaSrv.Mount("run", st); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cinema database mounted at /cinema/run/ (%d frames)\n", st.Len())
	}

	if err := obs.WriteHeapProfile(); err != nil {
		log.Fatal(err)
	}

	tb := report.NewTable(fmt.Sprintf("live %v run — %d steps, sampled every %d", kind, res.Steps, *sample),
		"metric", "value")
	tb.AddRow("samples visualized", fmt.Sprintf("%d", res.Samples))
	tb.AddRow("images written", fmt.Sprintf("%d (%v)", res.Images, res.ImageBytes))
	if res.RawBytes > 0 {
		tb.AddRow("raw netCDF dumps", res.RawBytes.String())
	}
	tb.AddRow("eddies per sample", fmt.Sprintf("%v", res.EddiesPerSample))
	if res.CyclonicEddies+res.AnticyclonicEddies > 0 {
		tb.AddRow("eddy spin census", fmt.Sprintf("%d cyclonic / %d anticyclonic", res.CyclonicEddies, res.AnticyclonicEddies))
	}
	tb.AddRow("eddy tracks", fmt.Sprintf("%d (longest life %v)", res.Tracks, res.LongestTrackLifetime))
	tb.AddRow("longest eddy drift", fmt.Sprintf("%.0f km", res.LongestTrackDistance/1000))
	tb.AddRow("peak flow speed", fmt.Sprintf("%.1f m/s", res.MaxVelocity))
	tb.AddRow("halo exchange per field", res.HaloBytesPerField.String())
	if injector != nil {
		tb.AddRow("chaos", fmt.Sprintf("%d faults injected (seed %d)", injector.Fired(), injector.Seed()))
		tb.AddRow("degradation", fmt.Sprintf("%d samples / %d frames dropped, %d rank crashes, %d failovers",
			res.DroppedSamples, res.DroppedFrames, res.RankCrashes, res.Failovers))
	}
	tb.AddRow("output directory", res.OutputDir)
	fmt.Print(tb.String())

	if *faultlog != "" {
		if err := cliobs.WriteLog(*faultlog, "fault log", injector.WriteLog); err != nil {
			log.Fatal(err)
		}
	}

	if err := obs.ReportModel(res.Model); err != nil {
		log.Fatal(err)
	}
	cliobs.PrintAttribution(res.PhaseEnergy)

	if obs.Trace != "" {
		var counters []trace.CounterTrack
		if res.PowerProfile != nil {
			counters = append(counters, trace.CounterTrack{Name: "node-model power", Profile: res.PowerProfile})
		}
		counters = append(counters, cliobs.ModelCounters(est)...)
		if err := cliobs.WriteFile(obs.Trace, func(w io.Writer) error {
			return trace.WriteChrome(w, res.Timeline, counters...)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s (open in Perfetto or chrome://tracing)\n", obs.Trace)
	}

	if *attribOut != "" {
		if res.PhaseEnergy == nil {
			log.Fatal("-attrib: run produced no attribution (no driver spans recorded)")
		}
		write := res.PhaseEnergy.WriteJSON
		if strings.HasSuffix(*attribOut, ".csv") {
			write = res.PhaseEnergy.WriteCSV
		}
		if err := cliobs.WriteFile(*attribOut, write); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attribution written to %s\n", *attribOut)
	}

	if err := obs.WriteTelemetry(res.Telemetry); err != nil {
		log.Fatal(err)
	}

	if *serveFor > 0 {
		fmt.Printf("serving cinema database for %v\n", *serveFor)
		time.Sleep(*serveFor)
	}
}
