package pipeline

import (
	"math"
	"testing"

	"insituviz/internal/clustersim"
	"insituviz/internal/units"
)

func TestReferenceWorkloadMatchesPaper(t *testing.T) {
	w := ReferenceWorkload(units.Hours(8))
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := w.Steps(); got != 8640 {
		t.Errorf("Steps = %d, want 8640", got)
	}
	sps, err := w.StepsPerSample()
	if err != nil || sps != 16 {
		t.Errorf("StepsPerSample = %d (%v), want 16", sps, err)
	}
	if got := w.Outputs(); got != 540 {
		t.Errorf("Outputs = %d, want 540", got)
	}
	if got := ReferenceWorkload(units.Hours(24)).Outputs(); got != 180 {
		t.Errorf("24h outputs = %d, want 180", got)
	}
	if got := ReferenceWorkload(units.Hours(72)).Outputs(); got != 60 {
		t.Errorf("72h outputs = %d, want 60", got)
	}
	// Raw dump sizes: 540 dumps must total ~230 GB.
	total := float64(w.RawBytesPerOutput()) * 540
	if math.Abs(total-230e9) > 1e6 {
		t.Errorf("raw total = %g, want 230 GB", total)
	}
	// Simulation time: 8640 steps must total ~603 s on 150 nodes.
	sim, err := w.TotalSimTime(150)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(sim)-603) > 0.01 {
		t.Errorf("TotalSimTime = %v, want 603 s", sim)
	}
}

func TestWorkloadValidation(t *testing.T) {
	base := ReferenceWorkload(units.Hours(8))
	cases := []struct {
		name string
		mut  func(*Workload)
	}{
		{"zero grid", func(w *Workload) { w.GridKM = 0 }},
		{"zero duration", func(w *Workload) { w.SimulatedDuration = 0 }},
		{"zero timestep", func(w *Workload) { w.Timestep = 0 }},
		{"sampling < timestep", func(w *Workload) { w.SamplingInterval = w.Timestep / 2 }},
		{"non-multiple sampling", func(w *Workload) { w.SamplingInterval = w.Timestep * 2.5 }},
		{"negative image bytes", func(w *Workload) { w.ImageSetBytes = -1 }},
	}
	for _, c := range cases {
		w := base
		c.mut(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestWorkloadScaling(t *testing.T) {
	w60 := ReferenceWorkload(units.Hours(24))
	w30 := w60
	w30.GridKM = 30
	// Halving the grid spacing quadruples cells, dumps, and step cost.
	if r := float64(w30.RawBytesPerOutput()) / float64(w60.RawBytesPerOutput()); math.Abs(r-4) > 1e-9 {
		t.Errorf("raw scaling = %v, want 4", r)
	}
	s60, _ := w60.SimSecondsPerStep(150)
	s30, _ := w30.SimSecondsPerStep(150)
	if r := float64(s30) / float64(s60); math.Abs(r-4) > 1e-9 {
		t.Errorf("step-cost scaling = %v, want 4", r)
	}
	// Doubling nodes halves the step cost.
	s300, _ := w60.SimSecondsPerStep(300)
	if r := float64(s60) / float64(s300); math.Abs(r-2) > 1e-9 {
		t.Errorf("node scaling = %v, want 2", r)
	}
	if _, err := w60.SimSecondsPerStep(0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := w60.TotalSimTime(-1); err == nil {
		t.Error("negative nodes accepted")
	}
	// Image size override.
	if w60.ImageBytesPerOutput() != RefImageSetBytes {
		t.Error("default image size wrong")
	}
	w60.ImageSetBytes = 5 * units.MB
	if w60.ImageBytesPerOutput() != 5*units.MB {
		t.Error("image size override ignored")
	}
}

func TestKindString(t *testing.T) {
	if PostProcessing.String() != "post-processing" || InSitu.String() != "in-situ" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestRunValidation(t *testing.T) {
	var bad Workload
	if _, err := Run(InSitu, bad, CaddyPlatform()); err == nil {
		t.Error("invalid workload accepted")
	}
	w := ReferenceWorkload(units.Hours(72))
	if _, err := Run(Kind(9), w, CaddyPlatform()); err == nil {
		t.Error("unknown kind accepted")
	}
	p := CaddyPlatform()
	p.Compute.Nodes = 0
	if _, err := Run(InSitu, w, p); err == nil {
		t.Error("broken platform accepted")
	}
	p = CaddyPlatform()
	p.Storage.Capacity = 0
	if _, err := Run(InSitu, w, p); err == nil {
		t.Error("broken storage accepted")
	}
}

// runBoth executes both pipelines at the given sampling interval on Caddy.
func runBoth(t testing.TB, sampling units.Seconds) (post, insitu *Metrics) {
	t.Helper()
	w := ReferenceWorkload(sampling)
	p := CaddyPlatform()
	var err error
	post, err = Run(PostProcessing, w, p)
	if err != nil {
		t.Fatal(err)
	}
	insitu, err = Run(InSitu, w, p)
	if err != nil {
		t.Fatal(err)
	}
	return post, insitu
}

func TestFig3ExecutionTimeShape(t *testing.T) {
	// The paper's Fig. 3: in-situ is ~51% / 38% / 19% faster at 8 / 24 /
	// 72 simulated-hour sampling; the benefit shrinks as sampling coarsens.
	var improvements []float64
	for _, cfg := range []struct {
		hours    float64
		lo, hi   float64
		paperPct float64
	}{
		{8, 0.45, 0.58, 51},
		{24, 0.30, 0.45, 38},
		{72, 0.12, 0.26, 19},
	} {
		post, insitu := runBoth(t, units.Hours(cfg.hours))
		imp := Improvement(float64(post.ExecutionTime), float64(insitu.ExecutionTime))
		if imp < cfg.lo || imp > cfg.hi {
			t.Errorf("%gh sampling: improvement = %.1f%%, want in [%.0f%%, %.0f%%] (paper: %.0f%%)",
				cfg.hours, imp*100, cfg.lo*100, cfg.hi*100, cfg.paperPct)
		}
		improvements = append(improvements, imp)
	}
	if !(improvements[0] > improvements[1] && improvements[1] > improvements[2]) {
		t.Errorf("improvements not monotone: %v", improvements)
	}
}

func TestExecutionTimeMatchesLinearModel(t *testing.T) {
	// Measured in-situ and post-processing run times must agree with the
	// paper's t = t_sim + alpha*S + beta*N structure using the calibrated
	// constants (alpha ~ 6.25 s/GB at 160 MB/s, beta = 1.2 s/set).
	post, insitu := runBoth(t, units.Hours(24))
	alpha := 1e9 / 160e6 // 6.25 s/GB
	n := 180.0
	rawGB := float64(post.Workload.RawBytesPerOutput()) * n / 1e9
	imgGB := float64(post.Workload.ImageBytesPerOutput()) * n / 1e9

	wantPost := 603 + alpha*(rawGB+imgGB) + RenderSecondsPerSet*n
	if rel := math.Abs(float64(post.ExecutionTime)-wantPost) / wantPost; rel > 0.02 {
		t.Errorf("post time = %v, model %v (off %.2f%%)", post.ExecutionTime, wantPost, rel*100)
	}
	wantIn := 603 + alpha*imgGB + RenderSecondsPerSet*n
	if rel := math.Abs(float64(insitu.ExecutionTime)-wantIn) / wantIn; rel > 0.02 {
		t.Errorf("in-situ time = %v, model %v (off %.2f%%)", insitu.ExecutionTime, wantIn, rel*100)
	}
}

func TestFig5PowerIsFlat(t *testing.T) {
	// The paper's Fig. 5: total average power is practically identical
	// across pipelines and sampling rates.
	post, insitu := runBoth(t, units.Hours(8))
	diff := math.Abs(float64(post.AvgTotalPower-insitu.AvgTotalPower)) / float64(insitu.AvgTotalPower)
	if diff > 0.03 {
		t.Errorf("power difference = %.2f%%, want < 3%% (post %v vs in-situ %v)",
			diff*100, post.AvgTotalPower, insitu.AvgTotalPower)
	}
	// Both sit in the vicinity of 44 kW compute + 2.3 kW storage.
	for _, m := range []*Metrics{post, insitu} {
		if float64(m.AvgTotalPower) < 42000 || float64(m.AvgTotalPower) > 47000 {
			t.Errorf("%v total power = %v, outside the measured band", m.Kind, m.AvgTotalPower)
		}
		if float64(m.AvgStoragePower) < 2270 || float64(m.AvgStoragePower) > 2303 {
			t.Errorf("%v storage power = %v, outside [2273, 2302]", m.Kind, m.AvgStoragePower)
		}
	}
}

func TestFig6EnergyTracksTime(t *testing.T) {
	// The paper's Fig. 6: because power is flat, energy savings track the
	// execution-time savings (50% / 38% / 19%).
	for _, h := range []float64{8, 24, 72} {
		post, insitu := runBoth(t, units.Hours(h))
		tImp := Improvement(float64(post.ExecutionTime), float64(insitu.ExecutionTime))
		eImp := Improvement(float64(post.Energy), float64(insitu.Energy))
		if math.Abs(tImp-eImp) > 0.04 {
			t.Errorf("%gh: time saving %.1f%% vs energy saving %.1f%% — should track closely",
				h, tImp*100, eImp*100)
		}
		if eImp <= 0 {
			t.Errorf("%gh: in-situ should save energy, got %.1f%%", h, eImp*100)
		}
	}
}

func TestFig7StorageReduction(t *testing.T) {
	// The paper's Fig. 7: 230 GB -> <1 GB at 8-hour sampling, a >99.5%
	// reduction at every rate.
	post, insitu := runBoth(t, units.Hours(8))
	if g := post.StorageUsed; g < 225*units.GB || g > 235*units.GB {
		t.Errorf("post storage = %v, want ~230 GB", post.StorageUsed)
	}
	if g := insitu.StorageUsed; g >= units.GB {
		t.Errorf("in-situ storage = %v, want < 1 GB", insitu.StorageUsed)
	}
	red := Improvement(float64(post.StorageUsed), float64(insitu.StorageUsed))
	if red < 0.995 {
		t.Errorf("storage reduction = %.3f%%, want > 99.5%%", red*100)
	}
}

func TestMetricsBreakdownConsistent(t *testing.T) {
	post, insitu := runBoth(t, units.Hours(24))
	for _, m := range []*Metrics{post, insitu} {
		sum := m.SimTime + m.IOTime + m.VizTime
		if math.Abs(float64(sum-m.ExecutionTime)) > 1e-6 {
			t.Errorf("%v: phases sum to %v, execution time %v", m.Kind, sum, m.ExecutionTime)
		}
		if math.Abs(float64(m.SimTime)-603) > 1 {
			t.Errorf("%v: sim time = %v, want ~603", m.Kind, m.SimTime)
		}
		if m.Outputs != 180 || m.Images != 180 {
			t.Errorf("%v: outputs %d images %d", m.Kind, m.Outputs, m.Images)
		}
		if len(m.Phases) == 0 {
			t.Errorf("%v: empty phase log", m.Kind)
		}
		if m.ComputeProfile == nil || m.StorageProfile == nil {
			t.Fatalf("%v: missing profiles", m.Kind)
		}
		// Profiles and ground truth agree on energy to meter precision.
		truth := m.ComputeTrace.Energy() + m.StorageTrace.Energy()
		if rel := math.Abs(float64(m.Energy-truth)) / float64(truth); rel > 0.01 {
			t.Errorf("%v: metered energy off ground truth by %.2f%%", m.Kind, rel*100)
		}
	}
	// Post-processing must spend far more time in I/O.
	if post.IOTime < 10*insitu.IOTime {
		t.Errorf("I/O time: post %v vs in-situ %v", post.IOTime, insitu.IOTime)
	}
}

func TestInSituPhaseSequence(t *testing.T) {
	w := ReferenceWorkload(units.Hours(72))
	m, err := Run(InSitu, w, CaddyPlatform())
	if err != nil {
		t.Fatal(err)
	}
	// Expect alternating simulate / visualize / io-wait triples.
	kinds := map[clustersim.PhaseKind]int{}
	for _, ph := range m.Phases {
		kinds[ph.Kind]++
	}
	if kinds[clustersim.PhaseSimulate] != 60 || kinds[clustersim.PhaseVisualize] != 60 || kinds[clustersim.PhaseIOWait] != 60 {
		t.Errorf("phase counts = %v, want 60 of each", kinds)
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(100, 49) != 0.51 {
		t.Errorf("Improvement = %v", Improvement(100, 49))
	}
	if Improvement(0, 5) != 0 {
		t.Error("zero base should give 0")
	}
}

func TestTailWindowSimulated(t *testing.T) {
	// A duration that is not a multiple of the sampling interval leaves a
	// tail that must still be simulated.
	w := ReferenceWorkload(units.Hours(7)) // 4320h / 7h = 617 outputs + tail
	m, err := Run(InSitu, w, CaddyPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if m.Outputs != 617 {
		t.Errorf("outputs = %d, want 617", m.Outputs)
	}
	// All 8640 steps are simulated regardless of the tail.
	wantSim := 603.0
	if math.Abs(float64(m.SimTime)-wantSim) > 1 {
		t.Errorf("sim time = %v, want ~%v", m.SimTime, wantSim)
	}
}

func BenchmarkRunInSitu(b *testing.B) {
	w := ReferenceWorkload(units.Hours(24))
	p := CaddyPlatform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(InSitu, w, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunPostProcessing(b *testing.B) {
	w := ReferenceWorkload(units.Hours(24))
	p := CaddyPlatform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(PostProcessing, w, p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPostProcessingFailsWhenStorageFills(t *testing.T) {
	// Failure injection: a rack too small for the raw dumps must abort the
	// post-processing run with an out-of-space error — the hard constraint
	// that forces the paper's scientists to cut sampling rates.
	w := ReferenceWorkload(units.Hours(8)) // needs ~230 GB
	p := CaddyPlatform()
	p.Storage.Capacity = 50 * units.GB
	if _, err := Run(PostProcessing, w, p); err == nil {
		t.Fatal("out-of-space run succeeded")
	}
	// The same rack comfortably holds the in-situ images.
	if _, err := Run(InSitu, w, p); err != nil {
		t.Fatalf("in-situ on small rack failed: %v", err)
	}
}

func TestPostProcessingReadDominatedViz(t *testing.T) {
	// At a finer grid with no read acceleration, reading a dump back takes
	// longer than beta, and the visualization phase becomes read-bound.
	w := ReferenceWorkload(units.Hours(24))
	w.GridKM = 30 // 4x the data: ~1.7 GB per dump
	p := CaddyPlatform()
	p.ReadRateFactor = 1 // no parallel-read speedup
	m, err := Run(PostProcessing, w, p)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 180 readbacks takes ~10.6 s >> beta = 1.2 s.
	readPerOutput := float64(w.RawBytesPerOutput()) / float64(p.Storage.Bandwidth)
	if float64(m.VizTime) < 180*readPerOutput*0.95 {
		t.Errorf("viz time = %v, want read-bound >= %v", m.VizTime, 180*readPerOutput)
	}
}

func TestInSituFailsOnBrokenImageWrite(t *testing.T) {
	// Even image-only output needs capacity: a rack with room for nothing
	// fails fast.
	w := ReferenceWorkload(units.Hours(8))
	p := CaddyPlatform()
	p.Storage.Capacity = 1 // one byte
	if _, err := Run(InSitu, w, p); err == nil {
		t.Fatal("in-situ with byte-sized rack succeeded")
	}
}

func TestReadRateFactorClamp(t *testing.T) {
	p := CaddyPlatform()
	p.ReadRateFactor = 0.1 // below rack bandwidth: clamped to 1x
	w := ReferenceWorkload(units.Hours(72))
	if _, err := Run(PostProcessing, w, p); err != nil {
		t.Fatalf("clamped read rate failed: %v", err)
	}
}

func TestIdleDuringIOAblation(t *testing.T) {
	// Section VIII's proposal as a platform knob: idling the compute nodes
	// during I/O waits must cut post-processing energy substantially while
	// leaving execution time unchanged.
	w := ReferenceWorkload(units.Hours(8))
	base, err := Run(PostProcessing, w, CaddyPlatform())
	if err != nil {
		t.Fatal(err)
	}
	managed := CaddyPlatform()
	managed.IdleDuringIO = true
	mgd, err := Run(PostProcessing, w, managed)
	if err != nil {
		t.Fatal(err)
	}
	if mgd.ExecutionTime != base.ExecutionTime {
		t.Errorf("power management changed execution time: %v vs %v",
			mgd.ExecutionTime, base.ExecutionTime)
	}
	saving := Improvement(float64(base.Energy), float64(mgd.Energy))
	if saving < 0.2 || saving > 0.5 {
		t.Errorf("idle-during-I/O saving = %.1f%%, expected ~30%% at the 8 h rate", saving*100)
	}
	// In-situ barely benefits: it has almost no I/O wait.
	insituBase, err := Run(InSitu, w, CaddyPlatform())
	if err != nil {
		t.Fatal(err)
	}
	insituMgd, err := Run(InSitu, w, managed)
	if err != nil {
		t.Fatal(err)
	}
	if s := Improvement(float64(insituBase.Energy), float64(insituMgd.Energy)); s > 0.02 {
		t.Errorf("in-situ idle-during-I/O saving = %.2f%%, should be negligible", s*100)
	}
}

func TestMeterIntervalDefaultsToOneMinute(t *testing.T) {
	p := CaddyPlatform()
	p.MeterInterval = 0
	w := ReferenceWorkload(units.Hours(72))
	m, err := Run(InSitu, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.ComputeProfile.Interval != units.Minutes(1) {
		t.Errorf("default meter interval = %v, want 1 min", m.ComputeProfile.Interval)
	}
}

// TotalSimTime returns the pure simulation-phase time of the run.
func (w Workload) TotalSimTime(nodes int) (units.Seconds, error) {
	per, err := w.SimSecondsPerStep(nodes)
	if err != nil {
		return 0, err
	}
	return per * units.Seconds(w.Steps()), nil
}
