package core

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"

	"insituviz/internal/pipeline"
	"insituviz/internal/units"
)

// paperEq5Points returns the literal measurement triplet of the paper's
// Eq. 5: (S_io GB, N_viz, seconds) for in-situ@8h, in-situ@72h, post@24h.
func paperEq5Points() [3]Measurement {
	return [3]Measurement{
		{Kind: pipeline.InSitu, Sampling: units.Hours(72), OutputGB: 0.1, Images: 60, Time: 676},
		{Kind: pipeline.InSitu, Sampling: units.Hours(8), OutputGB: 0.6, Images: 540, Time: 1261},
		{Kind: pipeline.PostProcessing, Sampling: units.Hours(24), OutputGB: 80, Images: 180, Time: 1322},
	}
}

func TestFitExactReproducesPaperEq5(t *testing.T) {
	tsim, alpha, beta, err := FitExact(paperEq5Points())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports t_sim = 603 s, and (after disentangling its
	// swapped prose) 6.3 s/GB and 1.2 s/image-set.
	if math.Abs(float64(tsim)-603) > 1 {
		t.Errorf("t_sim = %v, want ~603", tsim)
	}
	if math.Abs(alpha-6.3) > 0.05 {
		t.Errorf("alpha = %v, want ~6.3 s/GB", alpha)
	}
	if math.Abs(beta-1.2) > 0.02 {
		t.Errorf("beta = %v, want ~1.2 s/image", beta)
	}
}

func TestFitRegressionAgreesWithExactOnConsistentData(t *testing.T) {
	// Generate five points from a known model; regression must recover it.
	truth := Model{TSimRef: 603, Alpha: 6.25, Beta: 1.2}
	var pts []Measurement
	for _, cfg := range []struct {
		s float64
		n int
	}{{0.1, 60}, {0.6, 540}, {80, 180}, {27, 60}, {230, 540}} {
		pts = append(pts, Measurement{
			OutputGB: cfg.s,
			Images:   cfg.n,
			Time:     units.Seconds(603 + truth.Alpha*cfg.s + truth.Beta*float64(cfg.n)),
		})
	}
	tsim, alpha, beta, err := FitRegression(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(tsim)-603) > 1e-6 || math.Abs(alpha-6.25) > 1e-8 || math.Abs(beta-1.2) > 1e-8 {
		t.Errorf("regression = (%v, %v, %v)", tsim, alpha, beta)
	}
	if _, _, _, err := FitRegression(pts[:2]); err == nil {
		t.Error("regression with 2 points accepted")
	}
}

func TestModelValidate(t *testing.T) {
	good := Model{TSimRef: 603, Alpha: 6.3, Beta: 1.2, Power: 46000, RefIterations: 8640,
		RawGBPerOutput: 0.426, ImgGBPerOutput: 0.0011}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Model){
		func(m *Model) { m.TSimRef = 0 },
		func(m *Model) { m.Alpha = 0 },
		func(m *Model) { m.Beta = -1 },
		func(m *Model) { m.Power = 0 },
		func(m *Model) { m.RefIterations = 0 },
		func(m *Model) { m.RawGBPerOutput = -1 },
	}
	for i, mut := range cases {
		m := good
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestOutputsFor(t *testing.T) {
	n, err := OutputsFor(units.Hours(4320), units.Hours(8))
	if err != nil || n != 540 {
		t.Errorf("OutputsFor = %d (%v), want 540", n, err)
	}
	if _, err := OutputsFor(0, units.Hours(1)); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := OutputsFor(units.Hours(1), 0); err == nil {
		t.Error("zero interval accepted")
	}
}

// characterizeRef runs the full characterization at the paper's three
// sampling rates; cached across tests via a package variable because it
// executes six pipeline runs.
var cachedCh *Characterization

func characterizeRef(t testing.TB) *Characterization {
	t.Helper()
	if cachedCh != nil {
		return cachedCh
	}
	base := pipeline.ReferenceWorkload(units.Hours(8))
	ch, err := Characterize(CaddyIntervalsPlatform(), base,
		[]units.Seconds{units.Hours(8), units.Hours(24), units.Hours(72)})
	if err != nil {
		t.Fatal(err)
	}
	cachedCh = ch
	return ch
}

// CaddyIntervalsPlatform returns the measured platform for tests.
func CaddyIntervalsPlatform() pipeline.Platform { return pipeline.CaddyPlatform() }

func TestCharacterizeProducesSixPoints(t *testing.T) {
	ch := characterizeRef(t)
	if len(ch.Points) != 6 || len(ch.Metrics) != 6 {
		t.Fatalf("points = %d, metrics = %d", len(ch.Points), len(ch.Metrics))
	}
	if _, ok := ch.Find(pipeline.InSitu, units.Hours(24)); !ok {
		t.Error("missing in-situ@24h")
	}
	if _, ok := ch.Find(pipeline.PostProcessing, units.Hours(72)); !ok {
		t.Error("missing post@72h")
	}
	if _, ok := ch.Find(pipeline.InSitu, units.Hours(5)); ok {
		t.Error("found nonexistent configuration")
	}
	if _, err := Characterize(CaddyIntervalsPlatform(), ch.Base, nil); err == nil {
		t.Error("empty interval list accepted")
	}
}

func TestFitPaperModelRecoversCalibration(t *testing.T) {
	ch := characterizeRef(t)
	m, err := ch.FitPaperModel()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(m.TSimRef)-603) > 5 {
		t.Errorf("t_sim = %v, want ~603", m.TSimRef)
	}
	// alpha recovers the rack bandwidth: 1 GB / 160 MB/s = 6.25 s/GB.
	if math.Abs(m.Alpha-6.25) > 0.3 {
		t.Errorf("alpha = %v, want ~6.25", m.Alpha)
	}
	if math.Abs(m.Beta-1.2) > 0.1 {
		t.Errorf("beta = %v, want ~1.2", m.Beta)
	}
	if kw := float64(m.Power) / 1000; kw < 42 || kw > 47 {
		t.Errorf("power = %v, want ~46 kW", m.Power)
	}
}

func TestFig8ModelValidation(t *testing.T) {
	// The paper's Fig. 8: the fitted model predicts the measured execution
	// times with absolute error below 0.5%.
	ch := characterizeRef(t)
	m, err := ch.FitPaperModel()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ch.Validate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Predicted) != 6 {
		t.Fatalf("validated %d points", len(rep.Predicted))
	}
	if rep.MaxAPE > 0.5 {
		t.Errorf("max APE = %.3f%%, want < 0.5%% as in the paper", rep.MaxAPE)
	}
	if rep.MAPE > rep.MaxAPE {
		t.Error("MAPE exceeds MaxAPE")
	}
}

func TestRegressionModelAlsoValidates(t *testing.T) {
	ch := characterizeRef(t)
	m, err := ch.FitRegressionModel()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ch.Validate(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxAPE > 0.5 {
		t.Errorf("regression max APE = %.3f%%", rep.MaxAPE)
	}
}

func TestFitPaperModelNeedsThreeIntervals(t *testing.T) {
	base := pipeline.ReferenceWorkload(units.Hours(8))
	ch, err := Characterize(CaddyIntervalsPlatform(), base, []units.Seconds{units.Hours(24)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.FitPaperModel(); err == nil {
		t.Error("paper fit with one interval accepted")
	}
}

func TestFig9StorageBudget(t *testing.T) {
	// The paper's Fig. 9: for a hundred-year simulation under a 2 TB
	// budget, post-processing is limited to one output per ~8 days while
	// in-situ sustains daily (even hourly) imaging.
	ch := characterizeRef(t)
	m, err := ch.FitPaperModel()
	if err != nil {
		t.Fatal(err)
	}
	century := units.Years(100)
	postIv, err := m.FinestIntervalUnderStorageBudget(pipeline.PostProcessing, century, 2*units.TB)
	if err != nil {
		t.Fatal(err)
	}
	days := float64(postIv) / 86400
	if days < 7 || days > 9 {
		t.Errorf("post-processing finest interval = %.2f days, paper says ~8", days)
	}
	inIv, err := m.FinestIntervalUnderStorageBudget(pipeline.InSitu, century, 2*units.TB)
	if err != nil {
		t.Fatal(err)
	}
	if float64(inIv) > 86400 {
		t.Errorf("in-situ finest interval = %v, should beat daily easily", inIv)
	}
	// Daily in-situ imaging for a century fits comfortably.
	s, err := m.Storage(pipeline.InSitu, century, units.Days(1))
	if err != nil {
		t.Fatal(err)
	}
	if s > 2*units.TB {
		t.Errorf("daily in-situ century = %v, want < 2 TB", s)
	}
	// Daily post-processing for a century blows through the rack.
	s, err = m.Storage(pipeline.PostProcessing, century, units.Days(1))
	if err != nil {
		t.Fatal(err)
	}
	if s < 10*units.TB {
		t.Errorf("daily post century = %v, want >> 7.7 TB rack", s)
	}
}

func TestFig10EnergyVsRate(t *testing.T) {
	// The paper's Fig. 10 numbers: in-situ saves 67.2% of workflow energy
	// at hourly sampling, ~49% at 12-hourly, ~38% at daily.
	ch := characterizeRef(t)
	m, err := ch.FitPaperModel()
	if err != nil {
		t.Fatal(err)
	}
	century := units.Years(100)
	ts := units.Minutes(30)
	pts, err := m.SweepRates(century, ts,
		[]units.Seconds{units.Hours(1), units.Hours(12), units.Hours(24)})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ lo, hi, paper float64 }{
		{0.62, 0.70, 0.672},
		{0.44, 0.53, 0.49},
		{0.33, 0.42, 0.38},
	}
	for i, w := range want {
		if pts[i].EnergySavings < w.lo || pts[i].EnergySavings > w.hi {
			t.Errorf("interval %v: savings = %.1f%%, want [%.0f%%, %.0f%%] (paper %.1f%%)",
				pts[i].Interval, pts[i].EnergySavings*100, w.lo*100, w.hi*100, w.paper*100)
		}
	}
	// Savings shrink monotonically as sampling coarsens.
	if !(pts[0].EnergySavings > pts[1].EnergySavings && pts[1].EnergySavings > pts[2].EnergySavings) {
		t.Errorf("savings not monotone: %v", pts)
	}
	// In-situ always wins on both storage and energy.
	for _, p := range pts {
		if p.InSituStorage >= p.PostStorage || p.InSituEnergy >= p.PostEnergy {
			t.Errorf("in-situ not winning at %v: %+v", p.Interval, p)
		}
	}
	if _, err := m.SweepRates(century, ts, nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestEnergyBudgetSolver(t *testing.T) {
	ch := characterizeRef(t)
	m, err := ch.FitPaperModel()
	if err != nil {
		t.Fatal(err)
	}
	century := units.Years(100)
	ts := units.Minutes(30)
	// Budget exactly covering the simulation plus 1000 post outputs.
	iters := float64(century) / float64(ts)
	tsim := float64(m.TSimRef) * iters / float64(m.RefIterations)
	perOutput := m.Alpha*m.StorageGB(pipeline.PostProcessing, 1) + m.Beta
	budget := units.Energy(m.Power, units.Seconds(tsim+1000*perOutput))
	iv, err := m.FinestIntervalUnderEnergyBudget(pipeline.PostProcessing, century, ts, budget)
	if err != nil {
		t.Fatal(err)
	}
	wantIv := float64(century) / 1000
	if math.Abs(float64(iv)-wantIv)/wantIv > 0.01 {
		t.Errorf("interval = %v, want ~%v", iv, units.Seconds(wantIv))
	}
	// The energy prediction at that interval must sit at the budget.
	e, err := m.Energy(pipeline.PostProcessing, century, ts, iv)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(e-budget)) / float64(budget); rel > 0.01 {
		t.Errorf("energy at budget interval off by %.2f%%", rel*100)
	}
	// Budgets that cannot cover the simulation are rejected.
	if _, err := m.FinestIntervalUnderEnergyBudget(pipeline.PostProcessing, century, ts,
		units.Energy(m.Power, units.Seconds(tsim/2))); err == nil {
		t.Error("impossible energy budget accepted")
	}
	if _, err := m.FinestIntervalUnderEnergyBudget(pipeline.PostProcessing, century, ts, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestStorageBudgetSolverValidation(t *testing.T) {
	m := &Model{TSimRef: 603, Alpha: 6.25, Beta: 1.2, Power: 46000, RefIterations: 8640,
		RawGBPerOutput: 0.426, ImgGBPerOutput: 0.0011}
	if _, err := m.FinestIntervalUnderStorageBudget(pipeline.PostProcessing, 0, units.TB); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := m.FinestIntervalUnderStorageBudget(pipeline.PostProcessing, units.Years(1), 0); err == nil {
		t.Error("zero budget accepted")
	}
	// A budget smaller than one output is impossible.
	if _, err := m.FinestIntervalUnderStorageBudget(pipeline.PostProcessing, units.Years(1), units.Bytes(1000)); err == nil {
		t.Error("sub-output budget accepted")
	}
	bad := *m
	bad.Alpha = 0
	if _, err := bad.FinestIntervalUnderStorageBudget(pipeline.PostProcessing, units.Years(1), units.TB); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestModelPredictionArguments(t *testing.T) {
	m := &Model{TSimRef: 603, Alpha: 6.25, Beta: 1.2, Power: 46000, RefIterations: 8640,
		RawGBPerOutput: 0.426, ImgGBPerOutput: 0.0011}
	if _, err := m.Time(pipeline.InSitu, units.Hours(10), 0, units.Hours(1)); err == nil {
		t.Error("zero timestep accepted")
	}
	if _, err := m.Time(pipeline.InSitu, units.Hours(10), units.Minutes(30), 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := m.Energy(pipeline.InSitu, 0, units.Minutes(30), units.Hours(1)); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := m.ValidateAgainst(nil, units.Hours(1), units.Minutes(30)); err == nil {
		t.Error("empty validation accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	ch := characterizeRef(t)
	var buf bytes.Buffer
	if err := ch.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // header + 6 configurations
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	if rows[0][0] != "pipeline" || len(rows[0]) != 8 {
		t.Errorf("header = %v", rows[0])
	}
	seen := map[string]int{}
	for _, row := range rows[1:] {
		seen[row[0]]++
		if _, err := strconv.ParseFloat(row[4], 64); err != nil {
			t.Errorf("time column not numeric: %v", row[4])
		}
	}
	if seen["in-situ"] != 3 || seen["post-processing"] != 3 {
		t.Errorf("pipelines = %v", seen)
	}
	if err := ch.WriteCSV(nil); err == nil {
		t.Error("nil writer accepted")
	}
}
