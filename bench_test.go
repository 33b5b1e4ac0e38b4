package insituviz

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark runs the underlying experiment inside the
// timing loop and prints the corresponding table once, so
//
//	go test -bench=. -benchmem
//
// reproduces the study's numbers alongside the harness's own cost.
//
// Paper artifact -> benchmark:
//
//	Fig. 3  execution time        BenchmarkFig3ExecutionTime
//	Fig. 4  power profile         BenchmarkFig4PowerProfile
//	Fig. 5  average power         BenchmarkFig5Power
//	Fig. 6  energy                BenchmarkFig6Energy
//	Fig. 7  storage               BenchmarkFig7Storage
//	Eq. 5   model fit             BenchmarkEq5ModelFit
//	Fig. 8  model validation      BenchmarkFig8ModelValidation
//	Fig. 9  storage vs rate       BenchmarkFig9StorageVsRate
//	Fig. 10 energy vs rate        BenchmarkFig10EnergyVsRate
//	Sec. V  power proportionality BenchmarkPowerProportionality
//	Table I related-work compare  BenchmarkTable1Comparison
//	Table II symbols              documented in internal/core's package docs

import (
	"fmt"
	"sync"
	"testing"

	"insituviz/internal/core"
	"insituviz/internal/livemodel"
	"insituviz/internal/lustre"
	"insituviz/internal/mesh"
	"insituviz/internal/ocean"
	"insituviz/internal/pipeline"
	"insituviz/internal/render"
	"insituviz/internal/report"
	"insituviz/internal/stats"
	"insituviz/internal/trace"
	"insituviz/internal/units"
)

var paperRates = []Seconds{Hours(8), Hours(24), Hours(72)}

// runPair executes both pipelines at one sampling interval.
func runPair(b *testing.B, rate Seconds) (post, insitu *Metrics) {
	b.Helper()
	w := ReferenceWorkload(rate)
	p := CaddyPlatform()
	var err error
	if post, err = RunPipeline(PostProcessing, w, p); err != nil {
		b.Fatal(err)
	}
	if insitu, err = RunPipeline(InSitu, w, p); err != nil {
		b.Fatal(err)
	}
	return post, insitu
}

var printOnce sync.Map

// emit prints a table exactly once per benchmark name.
func emit(b *testing.B, s string) {
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
		fmt.Printf("\n%s\n", s)
	}
}

func BenchmarkFig3ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("Fig. 3 — execution time, in-situ vs post-processing",
			"sampling", "post (s)", "in-situ (s)", "in-situ faster by", "paper")
		paper := []string{"51%", "38%", "19%"}
		for k, rate := range paperRates {
			post, insitu := runPair(b, rate)
			tb.AddRow(rate.String(),
				fmt.Sprintf("%.0f", float64(post.ExecutionTime)),
				fmt.Sprintf("%.0f", float64(insitu.ExecutionTime)),
				report.Pct(pipeline.Improvement(float64(post.ExecutionTime), float64(insitu.ExecutionTime))),
				paper[k])
		}
		emit(b, tb.String())
	}
}

func BenchmarkFig4PowerProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ReferenceWorkload(Hours(8))
		m, err := RunPipeline(PostProcessing, w, CaddyPlatform())
		if err != nil {
			b.Fatal(err)
		}
		comp := m.ComputeProfile.Values()
		stor := m.StorageProfile.Values()
		tb := report.NewTable("Fig. 4 — per-minute power profile, post-processing @ 8 h sampling",
			"meter", "samples", "min (W)", "mean (W)", "max (W)", "profile")
		cs, _ := stats.Summarize(m.ComputeProfile.Values())
		ss, _ := stats.Summarize(m.StorageProfile.Values())
		tb.AddRow("compute (15 cages)", fmt.Sprintf("%d", cs.N),
			fmt.Sprintf("%.0f", cs.Min), fmt.Sprintf("%.0f", cs.Mean), fmt.Sprintf("%.0f", cs.Max),
			report.Sparkline(comp))
		tb.AddRow("storage (PDU)", fmt.Sprintf("%d", ss.N),
			fmt.Sprintf("%.0f", ss.Min), fmt.Sprintf("%.0f", ss.Mean), fmt.Sprintf("%.0f", ss.Max),
			report.Sparkline(stor))
		emit(b, tb.String())
	}
}

func BenchmarkFig5Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("Fig. 5 — total average power (compute + storage)",
			"sampling", "post (kW)", "in-situ (kW)", "difference")
		for _, rate := range paperRates {
			post, insitu := runPair(b, rate)
			diff := pipeline.Improvement(float64(insitu.AvgTotalPower), float64(post.AvgTotalPower))
			tb.AddRow(rate.String(),
				fmt.Sprintf("%.2f", post.AvgTotalPower.Kilowatts()),
				fmt.Sprintf("%.2f", insitu.AvgTotalPower.Kilowatts()),
				report.Pct(diff))
		}
		emit(b, tb.String()+"paper: practically no difference at any rate\n")
	}
}

func BenchmarkFig6Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("Fig. 6 — workflow energy",
			"sampling", "post (MJ)", "in-situ (MJ)", "in-situ saves", "paper")
		paper := []string{"50%", "38%", "19%"}
		for k, rate := range paperRates {
			post, insitu := runPair(b, rate)
			tb.AddRow(rate.String(),
				fmt.Sprintf("%.1f", post.Energy.Megajoules()),
				fmt.Sprintf("%.1f", insitu.Energy.Megajoules()),
				report.Pct(pipeline.Improvement(float64(post.Energy), float64(insitu.Energy))),
				paper[k])
		}
		emit(b, tb.String())
	}
}

func BenchmarkFig7Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("Fig. 7 — storage requirements",
			"sampling", "post", "in-situ", "reduction", "paper post")
		paper := []string{"230 GB", "80 GB", "27 GB"}
		for k, rate := range paperRates {
			post, insitu := runPair(b, rate)
			tb.AddRow(rate.String(),
				post.StorageUsed.String(),
				insitu.StorageUsed.String(),
				report.Pct(pipeline.Improvement(float64(post.StorageUsed), float64(insitu.StorageUsed))),
				paper[k])
		}
		emit(b, tb.String()+"paper: > 99.5% reduction at every rate\n")
	}
}

func reproduceModel(b *testing.B) (*Study, *Model) {
	b.Helper()
	st, err := ReproduceStudy(CaddyPlatform())
	if err != nil {
		b.Fatal(err)
	}
	return st, st.Model
}

func BenchmarkEq5ModelFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, m := reproduceModel(b)
		tb := report.NewTable("Eq. 5 — fitted model coefficients (3-point linear solve)",
			"coefficient", "fitted", "paper")
		tb.AddRow("t_sim (s, 6 sim-months)", fmt.Sprintf("%.1f", float64(m.TSimRef)), "603")
		tb.AddRow("alpha (s/GB)", fmt.Sprintf("%.2f", m.Alpha), "6.3")
		tb.AddRow("beta (s/image-set)", fmt.Sprintf("%.2f", m.Beta), "1.2")
		tb.AddRow("P (kW, flat)", fmt.Sprintf("%.2f", m.Power.Kilowatts()), "~46")
		emit(b, tb.String())
	}
}

func BenchmarkFig8ModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, m := reproduceModel(b)
		rep, err := st.Characterization.Validate(m)
		if err != nil {
			b.Fatal(err)
		}
		tb := report.NewTable("Fig. 8 — model validation (measured vs modeled execution time)",
			"configuration", "measured (s)", "modeled (s)", "error")
		for k, pt := range st.Characterization.Points {
			re := 0.0
			if rep.Measured[k] != 0 {
				re = (rep.Predicted[k] - rep.Measured[k]) / rep.Measured[k]
			}
			tb.AddRow(fmt.Sprintf("%v @ %v", pt.Kind, pt.Sampling),
				fmt.Sprintf("%.0f", rep.Measured[k]),
				fmt.Sprintf("%.0f", rep.Predicted[k]),
				report.Pct(re))
		}
		emit(b, tb.String()+fmt.Sprintf("max |error| = %.3f%% (paper: < 0.5%%)\n", rep.MaxAPE))
	}
}

var sweepIntervals = []Seconds{
	Hours(1), Hours(4), Hours(8), Hours(12), Hours(24),
	Days(2), Days(4), Days(8), Days(16),
}

func BenchmarkFig9StorageVsRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, m := reproduceModel(b)
		century := Years(100)
		pts, err := m.SweepRates(century, Minutes(30), sweepIntervals)
		if err != nil {
			b.Fatal(err)
		}
		tb := report.NewTable("Fig. 9 — storage vs sampling rate, 100-year simulation (2 TB budget)",
			"output every", "post storage", "in-situ storage", "post fits 2 TB?", "in-situ fits 2 TB?")
		for _, p := range pts {
			tb.AddRow(p.Interval.String(), p.PostStorage.String(), p.InSituStorage.String(),
				fmt.Sprintf("%v", p.PostStorage <= 2*units.TB),
				fmt.Sprintf("%v", p.InSituStorage <= 2*units.TB))
		}
		iv, err := m.FinestIntervalUnderStorageBudget(PostProcessing, century, 2*units.TB)
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tb.String()+fmt.Sprintf(
			"post-processing finest interval under 2 TB: %s (paper: once every ~8 days)\n", iv))
	}
}

func BenchmarkFig10EnergyVsRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, m := reproduceModel(b)
		pts, err := m.SweepRates(Years(100), Minutes(30), sweepIntervals)
		if err != nil {
			b.Fatal(err)
		}
		tb := report.NewTable("Fig. 10 — energy vs sampling rate, 100-year simulation",
			"output every", "post (GJ)", "in-situ (GJ)", "in-situ saves", "paper")
		paper := map[Seconds]string{Hours(1): "67.2%", Hours(12): "49%", Hours(24): "38%"}
		for _, p := range pts {
			tb.AddRow(p.Interval.String(),
				fmt.Sprintf("%.1f", float64(p.PostEnergy)/1e9),
				fmt.Sprintf("%.1f", float64(p.InSituEnergy)/1e9),
				report.Pct(p.EnergySavings),
				paper[p.Interval])
		}
		emit(b, tb.String())
	}
}

func BenchmarkPowerProportionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Probe both subsystems idle and at full load, the Section V
		// microbenchmark explaining why Hypothesis 1 failed.
		w := ReferenceWorkload(Hours(8))
		m, err := RunPipeline(PostProcessing, w, CaddyPlatform())
		if err != nil {
			b.Fatal(err)
		}
		p := CaddyPlatform()
		tb := report.NewTable("Section V — power proportionality of the two subsystems",
			"subsystem", "idle", "full load", "dynamic range", "paper")
		tb.AddRow("storage rack",
			p.Storage.IdlePower.String(), p.Storage.BusyPower.String(),
			report.Pct(float64(p.Storage.BusyPower-p.Storage.IdlePower)/float64(p.Storage.IdlePower)),
			"2273 W / 2302 W (1.3%)")
		computeIdle := units.Watts(float64(p.Compute.NodeIdlePower) * float64(p.Compute.Nodes))
		computeBusy := units.Watts(float64(p.Compute.NodeBusyPower) * float64(p.Compute.Nodes))
		tb.AddRow("compute cluster",
			computeIdle.String(), computeBusy.String(),
			report.Pct(float64(computeBusy-computeIdle)/float64(computeIdle)),
			"15 kW / 44 kW (193%)")
		// Observed storage swing during a real post-processing run.
		ss, _ := stats.Summarize(m.StorageProfile.Values())
		emit(b, tb.String()+fmt.Sprintf(
			"observed storage swing during post-processing run: %.0f-%.0f W\n", ss.Min, ss.Max))
	}
}

func BenchmarkTable1Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Table I is qualitative (comparison with Gamell et al.); it is
		// reprinted for completeness, with this reproduction's position.
		tb := report.NewTable("Table I — comparison with related work",
			"aspect", "Gamell et al. [5]", "the paper", "this reproduction")
		tb.AddRow("power", "estimated", "measured", "simulated meters, measured semantics")
		tb.AddRow("component", "interconnect", "storage and compute", "storage and compute")
		tb.AddRow("application", "combustion", "climate (MPAS-O)", "shallow-water ocean (MPAS-style)")
		tb.AddRow("interference", "unknown", "none (dedicated)", "none (simulated dedicated)")
		tb.AddRow("task", "topological analysis", "tracking eddies", "tracking eddies (Okubo-Weiss)")
		emit(b, tb.String())
	}
}

// BenchmarkLiveCoupledRun measures the real scientific stack end to end:
// solver, Okubo-Weiss, parallel rendering, Cinema output, eddy tracking.
func BenchmarkLiveCoupledRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := LiveRun(LiveConfig{
			Mode:             InSitu,
			MeshSubdivisions: 3,
			Steps:            24,
			SampleEverySteps: 12,
			OutputDir:        b.TempDir(),
			ImageWidth:       128,
			ImageHeight:      64,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Images != 2 {
			b.Fatalf("images = %d", res.Images)
		}
	}
}

// BenchmarkLiveCoupledRunTraced is the same end-to-end run with the full
// observability stack attached — timeline tracer, phase-aligned
// attribution, and the online cost-model estimator — the overhead that
// the zero-allocation hot paths are supposed to keep within 10% of
// BenchmarkLiveCoupledRun.
func BenchmarkLiveCoupledRunTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := LiveRun(LiveConfig{
			Mode:             InSitu,
			MeshSubdivisions: 3,
			Steps:            24,
			SampleEverySteps: 12,
			OutputDir:        b.TempDir(),
			ImageWidth:       128,
			ImageHeight:      64,
			Tracer:           trace.New(trace.Options{}),
			Model:            livemodel.New(livemodel.Config{Window: 256, Damping: 1e-9}),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Images != 2 {
			b.Fatalf("images = %d", res.Images)
		}
		if res.PhaseEnergy == nil {
			b.Fatal("traced run produced no attribution")
		}
		if res.Model == nil || res.Model.Observations == 0 {
			b.Fatal("traced run produced no model snapshot")
		}
	}
}

// wimpyPlatform swaps in the Section VIII wimpy-CPU storage rack.
func wimpyPlatform() Platform {
	p := CaddyPlatform()
	p.Storage = lustre.WimpyStorage()
	return p
}

// BenchmarkAblationProportionalStorage quantifies Section VIII's first
// proposal: if the storage rack were power-proportional (idling at 10% of
// its load power), how much power would in-situ actually save?
func BenchmarkAblationProportionalStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ReferenceWorkload(Hours(8))
		measured := CaddyPlatform()
		proportional := CaddyPlatform()
		proportional.Storage.IdlePower = proportional.Storage.BusyPower / 10

		tb := report.NewTable("Ablation — Section VIII: power-proportional storage rack",
			"platform", "post storage power", "in-situ storage power", "in-situ saves")
		for _, cfg := range []struct {
			name string
			p    Platform
		}{
			{"measured rack (1.3% range)", measured},
			{"proportional rack (10x range)", proportional},
			{"wimpy-CPU rack (Sec. VIII)", wimpyPlatform()},
		} {
			post, err := RunPipeline(PostProcessing, w, cfg.p)
			if err != nil {
				b.Fatal(err)
			}
			insitu, err := RunPipeline(InSitu, w, cfg.p)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(cfg.name,
				post.AvgStoragePower.String(), insitu.AvgStoragePower.String(),
				report.Pct(pipeline.Improvement(float64(post.AvgStoragePower), float64(insitu.AvgStoragePower))))
		}
		emit(b, tb.String()+"with today's rack, reduced I/O saves no storage power (Finding 2); a proportional rack would change that\n")
	}
}

// BenchmarkAblationIOWaitPowerManagement runs Section VIII's second
// proposal as an actual platform ablation: the compute nodes drop to idle
// power during I/O waits instead of polling near full power. The paper
// notes current idle-management only targets prolonged idleness; this
// quantifies what millisecond-scale management would save.
func BenchmarkAblationIOWaitPowerManagement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ReferenceWorkload(Hours(8))
		baseline := CaddyPlatform()
		managed := CaddyPlatform()
		managed.IdleDuringIO = true

		tb := report.NewTable("Ablation — Section VIII: idle-during-I/O power management (post @ 8 h)",
			"platform", "avg compute power", "energy (MJ)", "saved")
		ref, err := RunPipeline(PostProcessing, w, baseline)
		if err != nil {
			b.Fatal(err)
		}
		tb.AddRow("polling during I/O (measured behaviour)",
			ref.AvgComputePower.String(), fmt.Sprintf("%.1f", ref.Energy.Megajoules()), "—")
		mgd, err := RunPipeline(PostProcessing, w, managed)
		if err != nil {
			b.Fatal(err)
		}
		tb.AddRow("idle during I/O (proposed)",
			mgd.AvgComputePower.String(), fmt.Sprintf("%.1f", mgd.Energy.Megajoules()),
			report.Pct(pipeline.Improvement(float64(ref.Energy), float64(mgd.Energy))))
		emit(b, tb.String()+fmt.Sprintf(
			"the run spends %v waiting on I/O; idling there cuts the workflow's energy materially,\n"+
				"but note it would also surface the power non-flatness the paper did not observe\n", ref.IOTime))
	}
}

// BenchmarkExtensionInTransitSweep explores the in-transit workflow the
// paper's related work discusses (Bennett et al.): how the simulation /
// staging partition split trades execution time against power. Too few
// staging nodes and rendering backpressures the simulation; too many and
// the shrunken simulation partition dominates.
func BenchmarkExtensionInTransitSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ReferenceWorkload(Hours(24))
		insitu, err := RunPipeline(InSitu, w, CaddyPlatform())
		if err != nil {
			b.Fatal(err)
		}
		tb := report.NewTable("Extension — in-transit staging-partition sweep @ 24 h sampling",
			"configuration", "time (s)", "compute power", "energy (MJ)")
		tb.AddRow("in-situ (all 150 nodes)",
			fmt.Sprintf("%.0f", float64(insitu.ExecutionTime)),
			insitu.AvgComputePower.String(),
			fmt.Sprintf("%.1f", insitu.Energy.Megajoules()))
		for _, staging := range []int{10, 30, 50, 70, 100} {
			p := CaddyPlatform()
			p.StagingNodes = staging
			m, err := RunPipeline(InTransit, w, p)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(fmt.Sprintf("in-transit, %d sim + %d staging", 150-staging, staging),
				fmt.Sprintf("%.0f", float64(m.ExecutionTime)),
				m.AvgComputePower.String(),
				fmt.Sprintf("%.1f", m.Energy.Megajoules()))
		}
		emit(b, tb.String())
	}
}

// BenchmarkExtensionSamplingAdequacy connects the model to the science
// requirement behind it: eddies must be observed enough times to be
// tracked. It draws a synthetic eddy-lifetime population (mean 120 days,
// "eddies exist for hundreds of days"), finds the coarsest adequate
// sampling interval, and prices meeting it with each pipeline.
func BenchmarkExtensionSamplingAdequacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lifetimes, err := core.SyntheticLifetimes(5000, 120*86400, 42)
		if err != nil {
			b.Fatal(err)
		}
		sums, err := core.SweepSampling(lifetimes,
			[]float64{3600, 86400, 8 * 86400, 30 * 86400}, 100)
		if err != nil {
			b.Fatal(err)
		}
		tb := report.NewTable("Extension — temporal sampling adequacy (100 observations per eddy)",
			"output every", "mean observations", "eddies missed")
		for _, s := range sums {
			tb.AddRow(units.Seconds(s.Interval).String(),
				fmt.Sprintf("%.0f", s.MeanObservations),
				report.Pct(s.MissedFraction))
		}
		req := core.Requirement{MinObservations: 100, Coverage: 0.9}
		iv, err := core.CoarsestInterval(lifetimes, req)
		if err != nil {
			b.Fatal(err)
		}
		_, m := reproduceModel(b)
		century := Years(100)
		postS, err := m.Storage(PostProcessing, century, Seconds(iv))
		if err != nil {
			b.Fatal(err)
		}
		inS, err := m.Storage(InSitu, century, Seconds(iv))
		if err != nil {
			b.Fatal(err)
		}
		emit(b, tb.String()+fmt.Sprintf(
			"coarsest adequate interval (90%% of eddies, 100 obs): %v\n"+
				"meeting it over 100 years costs %v post-processing vs %v in-situ\n",
			Seconds(iv), postS, inS))
	}
}

// BenchmarkExtensionEnergyEconomics prices the measured energies with the
// paper's one-million-dollars-per-megawatt-year rule of thumb.
func BenchmarkExtensionEnergyEconomics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, m := reproduceModel(b)
		assume := core.DefaultCostAssumptions()
		century := Years(100)
		ts := Minutes(30)
		tb := report.NewTable("Extension — energy economics of a 100-year campaign ($1M/MW-year)",
			"output every", "post energy cost", "in-situ energy cost", "saved")
		for _, iv := range []Seconds{Hours(1), Hours(12), Hours(24)} {
			pe, err := m.Energy(PostProcessing, century, ts, iv)
			if err != nil {
				b.Fatal(err)
			}
			ie, err := m.Energy(InSitu, century, ts, iv)
			if err != nil {
				b.Fatal(err)
			}
			cc, err := assume.CompareCampaigns(pe, ie)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(iv.String(),
				fmt.Sprintf("$%.0f", cc.PostDollars),
				fmt.Sprintf("$%.0f", cc.InSituDollars),
				fmt.Sprintf("$%.0f", cc.SavedDollars))
		}
		emit(b, tb.String())
	}
}

// BenchmarkFinding3TrappedCapacity tests the paper's Hypothesis 3 the way
// Section V refutes it: in-situ does not raise power utilization, so it
// cannot harness the trapped capacity of a power-provisioned machine.
func BenchmarkFinding3TrappedCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := ReferenceWorkload(Hours(8))
		p := CaddyPlatform()
		budget := units.Watts(float64(p.Compute.NodeBusyPower)*float64(p.Compute.Nodes)) +
			p.Storage.BusyPower
		tb := report.NewTable("Finding 3 — power utilization vs the provisioned budget",
			"pipeline", "avg power", "utilization", "trapped capacity")
		for _, kind := range []Kind{PostProcessing, InSitu} {
			m, err := RunPipeline(kind, w, p)
			if err != nil {
				b.Fatal(err)
			}
			u, err := core.PowerUtilization(m.AvgTotalPower, budget)
			if err != nil {
				b.Fatal(err)
			}
			tc, err := core.TrappedCapacity(m.AvgTotalPower, budget)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(kind.String(), m.AvgTotalPower.String(), report.Pct(u), tc.String())
		}
		emit(b, tb.String()+"paper Finding 3: in-situ cannot be expected to improve power utilization\n")
	}
}

// BenchmarkExtensionMultiResolutionRefit demonstrates the methodology's
// "architecture-specific, application-aware" claim: re-characterizing at a
// different grid resolution re-fits t_sim (application work grows
// quadratically) while alpha stays pinned to the storage architecture.
func BenchmarkExtensionMultiResolutionRefit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := report.NewTable("Extension — model re-fit across grid resolutions",
			"grid", "t_sim (s)", "alpha (s/GB)", "beta (s/set)", "raw GB/output")
		for _, grid := range []float64{120, 60, 30} {
			base := ReferenceWorkload(Hours(8))
			base.GridKM = grid
			ch, err := Characterize(CaddyPlatform(), base,
				[]Seconds{Hours(8), Hours(24), Hours(72)})
			if err != nil {
				b.Fatal(err)
			}
			m, err := ch.FitPaperModel()
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(fmt.Sprintf("%.0f km", grid),
				fmt.Sprintf("%.0f", float64(m.TSimRef)),
				fmt.Sprintf("%.2f", m.Alpha),
				fmt.Sprintf("%.2f", m.Beta),
				fmt.Sprintf("%.2f", m.RawGBPerOutput))
		}
		emit(b, tb.String()+"t_sim and data volume track the application quadratically; alpha stays pinned to the\n"+
			"rack's 6.25 s/GB until, at 30 km, per-dump readback outgrows beta and leaks into alpha --\n"+
			"exactly why the paper calls the model architecture-specific and re-fits per configuration\n")
	}
}

// BenchmarkExtensionImageQualityTradeoff quantifies the Cinema image
// database's resolution/size trade-off on real solver output — the
// quality dimension the related work of Haldeman et al. adds to the
// energy/performance analysis. Each image set resolution is priced in
// bytes (what in-situ commits to disk) and scored in PSNR against the
// highest resolution rendered.
func BenchmarkExtensionImageQualityTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		msh, err := mesh.NewIcosphere(3, mesh.EarthRadius)
		if err != nil {
			b.Fatal(err)
		}
		md, err := ocean.NewModel(msh, ocean.Config{Viscosity: 2e5})
		if err != nil {
			b.Fatal(err)
		}
		st, err := ocean.UnstableJet(md, ocean.DefaultGalewsky())
		if err != nil {
			b.Fatal(err)
		}
		dt := md.SuggestedTimestep(10000)
		for s := 0; s < 12; s++ {
			if err := md.Step(st, dt); err != nil {
				b.Fatal(err)
			}
		}
		field := md.OkuboWeiss(st)
		cm := render.OkuboWeissMap()
		norm := render.SymmetricRange(field)

		const refW, refH = 384, 192
		refRast, err := render.NewRasterizer(msh, refW, refH)
		if err != nil {
			b.Fatal(err)
		}
		ref, err := refRast.Render(field, cm, norm)
		if err != nil {
			b.Fatal(err)
		}
		refPNG, err := render.EncodePNG(ref)
		if err != nil {
			b.Fatal(err)
		}

		tb := report.NewTable("Extension — image resolution vs size vs fidelity (Okubo-Weiss frame)",
			"resolution", "PNG size", "PSNR vs 384x192")
		tb.AddRow("384x192 (reference)", units.Bytes(len(refPNG)).String(), "∞")
		for _, res := range [][2]int{{192, 96}, {96, 48}, {48, 24}} {
			r, err := render.NewRasterizer(msh, res[0], res[1])
			if err != nil {
				b.Fatal(err)
			}
			img, err := r.Render(field, cm, norm)
			if err != nil {
				b.Fatal(err)
			}
			png, err := render.EncodePNG(img)
			if err != nil {
				b.Fatal(err)
			}
			up, err := render.ResizeNearest(img, refW, refH)
			if err != nil {
				b.Fatal(err)
			}
			psnr, err := render.PSNR(ref, up)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(fmt.Sprintf("%dx%d", res[0], res[1]),
				units.Bytes(len(png)).String(),
				fmt.Sprintf("%.1f dB", psnr))
		}
		emit(b, tb.String()+"images shrink much faster than fidelity degrades — the Cinema trade the paper's in-situ pipeline exploits\n")
	}
}
