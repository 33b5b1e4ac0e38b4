// Package cliobs is the observability surface liverun and insituviz-run
// share: the chaos, trace, telemetry, live-model and profiling flags, and
// the code behind them — profile start/stop, injector and estimator
// construction, the model convergence report, and the output-file writers.
package cliobs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"insituviz/internal/faults"
	"insituviz/internal/livemodel"
	"insituviz/internal/report"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
	"insituviz/internal/units"
	"insituviz/internal/workpool"
)

// Usage is the per-command wording of the shared flags whose help text
// differs: what -chaos arms, what -trace writes, what -http serves.
type Usage struct {
	Chaos, Trace, HTTP string
}

// Flags holds the parsed values of the shared flag set.
type Flags struct {
	Chaos, Trace, Telemetry, HTTP string

	Model              bool
	ModelWindow        int
	EnergyBudget       float64
	ModelLog, ModelOut string

	PoolWorkers            int
	CPUProfile, MemProfile string
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet, u Usage) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Chaos, "chaos", "", fmt.Sprintf("%s: seed=N[,profile] (profiles: %s)",
		u.Chaos, strings.Join(faults.ProfileNames(), ", ")))
	fs.StringVar(&f.Trace, "trace", "", u.Trace)
	fs.StringVar(&f.Telemetry, "telemetry", "", "write the run's telemetry snapshot as JSON to this file (\"-\" for stdout, as text)")
	fs.StringVar(&f.HTTP, "http", "", u.HTTP)
	fs.BoolVar(&f.Model, "model", false, "fit the paper's cost model online during the run; adds /model to -http and a convergence table at exit")
	fs.IntVar(&f.ModelWindow, "model-window", 256, "observation window for the online model fit (0 = unbounded)")
	fs.Float64Var(&f.EnergyBudget, "energy-budget", 0, "energy budget in joules; the model flags a budget anomaly when cumulative modeled energy crosses it (implies -model)")
	fs.StringVar(&f.ModelLog, "model-log", "", "write the byte-stable model anomaly log to this file (\"-\" for stdout; implies -model)")
	fs.StringVar(&f.ModelOut, "model-out", "", "write the final model snapshot (the /model JSON) to this file (implies -model)")
	fs.IntVar(&f.PoolWorkers, "pool-workers", 0, "cap the shared worker pool's width below GOMAXPROCS (0 = no cap)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile taken after the run to this file")
	return f
}

// Start applies -pool-workers and starts the -cpuprofile; the returned stop
// ends the profile and closes its file.
func (f *Flags) Start() (stop func() error, err error) {
	if f.PoolWorkers > 0 && !workpool.SetLimit(f.PoolWorkers) {
		return nil, errors.New("-pool-workers: the shared worker pool already started")
	}
	if f.CPUProfile == "" {
		return func() error { return nil }, nil
	}
	file, err := os.Create(f.CPUProfile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return file.Close()
	}, nil
}

// Injector builds the -chaos fault injector, nil when the flag is unset.
func (f *Flags) Injector() (*faults.Injector, error) {
	if f.Chaos == "" {
		return nil, nil
	}
	plan, err := faults.ParseSpec(f.Chaos)
	if err != nil {
		return nil, err
	}
	return faults.New(plan)
}

// Estimator builds the online cost-model estimator, nil unless -model or a
// flag implying it is set.
func (f *Flags) Estimator() *livemodel.Estimator {
	if !f.Model && f.EnergyBudget <= 0 && f.ModelLog == "" && f.ModelOut == "" {
		return nil
	}
	return livemodel.New(livemodel.Config{
		Window:        f.ModelWindow,
		Damping:       1e-9,
		EnergyBudgetJ: f.EnergyBudget,
	})
}

// ModelEndpoints is the estimator's /model endpoint for the -http
// exposition, empty for a nil estimator.
func ModelEndpoints(est *livemodel.Estimator) []trace.Endpoint {
	if est == nil {
		return nil
	}
	return []trace.Endpoint{{Path: "/model", Desc: "live cost-model fit (JSON)", H: est.Handler()}}
}

// ModelCounters renders the estimator's predicted and actual step-time
// series as trace counter tracks, empty when there is no series.
func ModelCounters(est *livemodel.Estimator) []trace.CounterTrack {
	series := est.Series()
	if len(series) == 0 {
		return nil
	}
	pred := trace.CounterTrack{Name: "model predicted step time", Unit: "s"}
	act := trace.CounterTrack{Name: "model actual step time", Unit: "s"}
	for _, p := range series {
		pred.Points = append(pred.Points, trace.CounterPoint{TS: units.Seconds(p.TS), Value: p.Predicted})
		act.Points = append(act.Points, trace.CounterPoint{TS: units.Seconds(p.TS), Value: p.Actual})
	}
	return []trace.CounterTrack{pred, act}
}

// WriteFile creates path, runs write over it and closes it.
func WriteFile(path string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// WriteLog writes a byte-stable log to path, or to stdout for "-", and
// announces the file as what.
func WriteLog(path, what string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	if err := WriteFile(path, write); err != nil {
		return err
	}
	fmt.Printf("%s written to %s\n", what, path)
	return nil
}

// WriteHeapProfile writes the -memprofile, if asked for.
func (f *Flags) WriteHeapProfile() error {
	if f.MemProfile == "" {
		return nil
	}
	runtime.GC() // settle the heap so the profile reflects live data
	return WriteFile(f.MemProfile, pprof.WriteHeapProfile)
}

// ReportModel prints the model convergence table and the contains-reference
// verdict, then writes -model-log and -model-out. A nil snapshot (no model
// flag set) reports nothing.
func (f *Flags) ReportModel(snap *livemodel.Snapshot) error {
	if snap == nil {
		return nil
	}
	ref := livemodel.NodeCostModel()
	mt := report.NewTable("live cost model — t = t_sim + α·S_io + β·N_viz",
		"quantity", "fitted", "reference")
	mt.AddRow("observations", fmt.Sprintf("%d (%d in fit window)", snap.Observations, snap.Included), "")
	mt.AddRow("t_sim (s)", fmt.Sprintf("%.4g ± %.2g", snap.TSim, snap.TSimCI), "")
	mt.AddRow("α (s/GB)", fmt.Sprintf("%.4g ± %.2g", snap.Alpha, snap.AlphaCI), fmt.Sprintf("%.4g", ref.AlphaSPerGB))
	mt.AddRow("β (s/image-set)", fmt.Sprintf("%.4g ± %.2g", snap.Beta, snap.BetaCI), fmt.Sprintf("%.4g", ref.BetaSPerSet))
	mt.AddRow("residual p50/p90/p99 (s)",
		fmt.Sprintf("%.3g / %.3g / %.3g", snap.ResidualP50, snap.ResidualP90, snap.ResidualP99), "")
	mt.AddRow("anomalies", fmt.Sprintf("%d io / %d viz / %d budget",
		snap.AnomalyCounts.IO, snap.AnomalyCounts.Viz, snap.AnomalyCounts.Budget), "")
	energy := fmt.Sprintf("%.4g J (burn %.4g W)", snap.EnergyJ, snap.BurnRateW)
	if snap.BudgetJ > 0 {
		energy += fmt.Sprintf(", budget %.4g J", snap.BudgetJ)
	}
	mt.AddRow("modeled energy", energy, "")
	fmt.Print(mt.String())
	verdict := "no"
	switch {
	case !snap.Converged || !snap.Identifiable:
		verdict = "indeterminate" // α not constrained by this run's window
	case livemodel.Contains(snap.Alpha, snap.AlphaCI, ref.AlphaSPerGB):
		verdict = "yes"
	}
	fmt.Printf("model alpha contains-reference %s\n", verdict)

	if f.ModelLog != "" {
		if err := WriteLog(f.ModelLog, "model anomaly log", snap.WriteLog); err != nil {
			return err
		}
	}
	if f.ModelOut != "" {
		if err := WriteFile(f.ModelOut, snap.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("model snapshot written to %s\n", f.ModelOut)
	}
	return nil
}

// PrintAttribution prints the per-phase energy attribution table, if the
// run produced one.
func PrintAttribution(att *trace.Attribution) {
	if att == nil {
		return
	}
	at := report.NewTable(fmt.Sprintf("phase-aligned energy attribution (%s meter)", att.Meter),
		"phase", "time", "energy", "avg power")
	for _, p := range att.Phases {
		at.AddRow(p.Phase, p.Time.String(), p.Energy.String(), p.AvgPower.String())
	}
	at.AddRow("total", att.Window.String(), att.Total.String(), "")
	fmt.Print(at.String())
}

// WriteTelemetry writes the -telemetry snapshot — text to stdout for "-",
// JSON to the named file — and nothing when the flag was not given.
func (f *Flags) WriteTelemetry(snap *telemetry.Snapshot) error {
	switch f.Telemetry {
	case "":
		return nil
	case "-":
		return snap.WriteText(os.Stdout)
	}
	if err := WriteFile(f.Telemetry, snap.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("telemetry snapshot written to %s\n", f.Telemetry)
	return nil
}
