// Command insituviz-run executes one visualization pipeline end to end on
// the simulated Caddy platform and prints the measured metrics — the
// paper's basic characterization experiment for a single configuration.
//
// Usage:
//
//	insituviz-run -pipeline insitu -sampling-hours 8
//	insituviz-run -pipeline post -sampling-hours 24 -grid-km 30 -months 3
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"insituviz"
	"insituviz/internal/cliobs"
	"insituviz/internal/pipeline"
	"insituviz/internal/report"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("insituviz-run: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	pipelineName := fs.String("pipeline", "insitu", "pipeline to run: insitu, post, or intransit")
	stagingNodes := fs.Int("staging-nodes", 0, "staging partition size for -pipeline intransit (0 = default)")
	samplingHours := fs.Float64("sampling-hours", 8, "output sampling interval in simulated hours")
	months := fs.Float64("months", 6, "simulated duration in 30-day months")
	gridKM := fs.Float64("grid-km", 60, "mesh resolution in km")
	timestepMin := fs.Float64("timestep-min", 30, "simulation timestep in simulated minutes")
	obs := cliobs.Register(fs, cliobs.Usage{
		Chaos: "arm deterministic storage fault injection",
		Trace: "write a Chrome-tracing JSON of the run's phases (with power counter tracks) to this file",
		HTTP:  "serve /metrics and /trace on this address during the run (e.g. :8080; \":0\" picks a port)",
	})
	fs.Parse(args) // ExitOnError: never returns an error

	stopProfile, err := obs.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := stopProfile(); err == nil {
			err = cerr
		}
	}()

	var kind insituviz.Kind
	switch *pipelineName {
	case "insitu", "in-situ":
		kind = insituviz.InSitu
	case "post", "post-processing":
		kind = insituviz.PostProcessing
	case "intransit", "in-transit":
		kind = insituviz.InTransit
	default:
		return fmt.Errorf("unknown pipeline %q (want insitu, post, or intransit)", *pipelineName)
	}

	w := insituviz.ReferenceWorkload(insituviz.Hours(*samplingHours))
	w.GridKM = *gridKM
	w.SimulatedDuration = insituviz.Hours(*months * 30 * 24)
	w.Timestep = insituviz.Minutes(*timestepMin)

	platform := insituviz.CaddyPlatform()
	platform.StagingNodes = *stagingNodes
	if platform.Faults, err = obs.Injector(); err != nil {
		return err
	}
	est := obs.Estimator()
	platform.Model = est
	var reg *telemetry.Registry
	if obs.Telemetry != "" || obs.HTTP != "" {
		reg = telemetry.NewRegistry()
		platform.Telemetry = reg
		est.SetTelemetry(reg)
	}
	if obs.HTTP != "" {
		tracer := trace.New(trace.Options{})
		platform.Tracer = tracer
		addr, shutdown, err := trace.Serve(obs.HTTP, trace.NewHandlerFrom(reg, tracer, cliobs.ModelEndpoints(est)...))
		if err != nil {
			return err
		}
		defer shutdown()
		endpoints := "/metrics, /trace"
		if est != nil {
			endpoints += ", /model"
		}
		fmt.Printf("serving live exposition on http://%s/ (%s)\n", addr, endpoints)
	}
	m, err := insituviz.RunPipeline(kind, w, platform)
	if err != nil {
		return err
	}

	if err := obs.WriteHeapProfile(); err != nil {
		return err
	}

	tb := report.NewTable(fmt.Sprintf("%v pipeline — %g km grid, %g months, output every %g h",
		kind, *gridKM, *months, *samplingHours), "metric", "value")
	tb.AddRow("execution time", m.ExecutionTime.String())
	tb.AddRow("  simulation phase", m.SimTime.String())
	tb.AddRow("  I/O wait", m.IOTime.String())
	tb.AddRow("  visualization phase", m.VizTime.String())
	tb.AddRow("avg compute power", m.AvgComputePower.String())
	tb.AddRow("avg storage power", m.AvgStoragePower.String())
	tb.AddRow("avg total power", m.AvgTotalPower.String())
	tb.AddRow("energy", m.Energy.String())
	tb.AddRow("storage used", m.StorageUsed.String())
	tb.AddRow("outputs written", fmt.Sprintf("%d", m.Outputs))
	fmt.Print(tb.String())

	if est != nil {
		if err := obs.ReportModel(est.Snapshot()); err != nil {
			return err
		}
	}
	cliobs.PrintAttribution(m.Attribution)

	if obs.Trace != "" {
		var counters []trace.CounterTrack
		if m.ComputeProfile != nil {
			counters = append(counters, trace.CounterTrack{Name: "compute power", Profile: m.ComputeProfile})
		}
		if m.StorageProfile != nil {
			counters = append(counters, trace.CounterTrack{Name: "storage power", Profile: m.StorageProfile})
		}
		counters = append(counters, cliobs.ModelCounters(est)...)
		if err := cliobs.WriteFile(obs.Trace, func(w io.Writer) error {
			return pipeline.WriteChromeTrace(w, m.Phases, counters...)
		}); err != nil {
			return err
		}
		fmt.Printf("phase timeline written to %s (open in Perfetto or chrome://tracing)\n", obs.Trace)
	}

	// The registry also exists for -http alone; the snapshot is written only
	// when -telemetry names where.
	return obs.WriteTelemetry(reg.Snapshot())
}
