package livemodel

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"insituviz/internal/linalg"
	"insituviz/internal/telemetry"
)

// synthObs builds a deterministic full-rank observation stream around the
// reference model: varying S_io and N_viz so all three columns carry
// independent information, constant t_sim so the intercept captures it
// exactly and the stream is noise-free.
func synthObs(n int) []Observation {
	ref := NodeCostModel()
	out := make([]Observation, n)
	for i := range out {
		s := 0.5 + 0.25*float64(i%7) // GB
		v := float64(1 + i%3)        // image sets
		out[i] = ref.Observation(10, s, v, 0, 0)
	}
	return out
}

func feed(e *Estimator, obs []Observation) {
	for _, o := range obs {
		e.Observe(o)
	}
}

// TestEquivalenceWithBatchLeastSquares is the package-level half of the
// equivalence satellite: an unbounded, undamped online fit must
// reproduce the batch QR least-squares solution (the machinery behind
// cmd/modelfit) to 1e-9.
func TestEquivalenceWithBatchLeastSquares(t *testing.T) {
	obs := synthObs(40)
	e := New(Config{Window: 0, Damping: 0})
	feed(e, obs)

	a := linalg.NewMatrix(len(obs), 3)
	rhs := make([]float64, len(obs))
	for i, o := range obs {
		a.Set(i, 0, 1)
		a.Set(i, 1, o.SIoGB)
		a.Set(i, 2, o.NViz)
		rhs[i] = o.T
	}
	want, err := linalg.LeastSquares(a, rhs)
	if err != nil {
		t.Fatalf("batch least squares: %v", err)
	}
	tsim, alpha, beta, ok := e.Coefficients()
	if !ok {
		t.Fatal("online fit did not converge")
	}
	got := []float64{tsim, alpha, beta}
	for j := range want {
		if d := math.Abs(got[j] - want[j]); d > 1e-9*math.Max(1, math.Abs(want[j])) {
			t.Errorf("coefficient %d: online %g, batch %g (|Δ|=%g)", j, got[j], want[j], d)
		}
	}
	// And both must recover the generating model exactly (the stream is
	// noise-free).
	ref := NodeCostModel()
	if math.Abs(alpha-ref.AlphaSPerGB) > 1e-9 || math.Abs(beta-ref.BetaSPerSet) > 1e-9 {
		t.Errorf("fit (α=%g, β=%g) does not recover reference (α=%g, β=%g)",
			alpha, beta, ref.AlphaSPerGB, ref.BetaSPerSet)
	}
}

// TestWindowedFitMatchesBatchOverWindow checks the sliding window: after
// expiry, the online coefficients equal a batch fit over exactly the
// last Window observations.
func TestWindowedFitMatchesBatchOverWindow(t *testing.T) {
	const window = 16
	obs := synthObs(50)
	e := New(Config{Window: window, Damping: 0})
	feed(e, obs)

	tail := obs[len(obs)-window:]
	a := linalg.NewMatrix(len(tail), 3)
	rhs := make([]float64, len(tail))
	for i, o := range tail {
		a.Set(i, 0, 1)
		a.Set(i, 1, o.SIoGB)
		a.Set(i, 2, o.NViz)
		rhs[i] = o.T
	}
	want, err := linalg.LeastSquares(a, rhs)
	if err != nil {
		t.Fatalf("batch least squares: %v", err)
	}
	tsim, alpha, beta, ok := e.Coefficients()
	if !ok {
		t.Fatal("online fit did not converge")
	}
	got := []float64{tsim, alpha, beta}
	for j := range want {
		if d := math.Abs(got[j] - want[j]); d > 1e-8*math.Max(1, math.Abs(want[j])) {
			t.Errorf("coefficient %d: windowed online %g, batch-over-window %g (|Δ|=%g)", j, got[j], want[j], d)
		}
	}
	if snap := e.Snapshot(); snap.Included != window {
		t.Errorf("Included = %d, want %d", snap.Included, window)
	}
}

// TestDeterminism: identical streams render byte-identical JSON and
// anomaly logs — the /model byte-stability contract.
func TestDeterminism(t *testing.T) {
	run := func() (string, string) {
		e := New(Config{Window: 8, Damping: 1e-9})
		obs := synthObs(30)
		obs[20].T += 50 // one fat residual → anomaly event
		obs[20].TIo += 50
		feed(e, obs)
		var j, l bytes.Buffer
		snap := e.Snapshot()
		if err := snap.WriteJSON(&j); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := snap.WriteLog(&l); err != nil {
			t.Fatalf("WriteLog: %v", err)
		}
		return j.String(), l.String()
	}
	j1, l1 := run()
	j2, l2 := run()
	if j1 != j2 {
		t.Errorf("JSON not byte-stable:\n%s\nvs\n%s", j1, j2)
	}
	if l1 != l2 {
		t.Errorf("log not byte-stable:\n%s\nvs\n%s", l1, l2)
	}
	if !strings.Contains(l1, "model anomaly #21 io") {
		t.Errorf("log missing io anomaly at seq 21:\n%s", l1)
	}
}

// TestAnomalyClassificationAndGating: an I/O stall is flagged "io", a
// viz overshoot "viz", and neither biases the coefficients.
func TestAnomalyClassificationAndGating(t *testing.T) {
	ref := NodeCostModel()
	e := New(Config{Window: 0, Damping: 0})
	obs := synthObs(20)
	feed(e, obs)

	stalled := ref.Observation(10, 1.0, 2, 30 /* io stall */, 0)
	e.Observe(stalled)
	over := ref.Observation(10, 1.0, 2, 0, 25 /* viz overload */)
	e.Observe(over)

	snap := e.Snapshot()
	if snap.AnomalyCounts.IO != 1 || snap.AnomalyCounts.Viz != 1 {
		t.Fatalf("anomaly counts = %+v, want io=1 viz=1", snap.AnomalyCounts)
	}
	if snap.Anomalies[0].Kind != KindIO || snap.Anomalies[0].Seq != 21 {
		t.Errorf("first anomaly = %+v, want io at seq 21", snap.Anomalies[0])
	}
	if snap.Anomalies[1].Kind != KindViz || snap.Anomalies[1].Seq != 22 {
		t.Errorf("second anomaly = %+v, want viz at seq 22", snap.Anomalies[1])
	}
	// Gating: the two anomalous observations are excluded, so the fit
	// still matches the generating model exactly.
	if math.Abs(snap.Alpha-ref.AlphaSPerGB) > 1e-9 || math.Abs(snap.Beta-ref.BetaSPerSet) > 1e-9 {
		t.Errorf("anomalies biased the fit: α=%g β=%g", snap.Alpha, snap.Beta)
	}
	if snap.Included != 20 {
		t.Errorf("Included = %d, want 20 (anomalies gated)", snap.Included)
	}
}

// TestBudgetTripsOnce: crossing the energy budget logs exactly one
// budget anomaly, at the crossing observation.
func TestBudgetTripsOnce(t *testing.T) {
	ref := NodeCostModel()
	perObs := ref.Observation(10, 1, 1, 0, 0).EnergyJ
	e := New(Config{Window: 0, EnergyBudgetJ: 2.5 * perObs})
	for i := 0; i < 6; i++ {
		e.Observe(ref.Observation(10, 1, 1, 0, 0))
	}
	snap := e.Snapshot()
	if snap.AnomalyCounts.Budget != 1 {
		t.Fatalf("budget anomalies = %d, want 1", snap.AnomalyCounts.Budget)
	}
	if snap.Anomalies[0].Seq != 3 || snap.Anomalies[0].Kind != KindBudget {
		t.Errorf("budget anomaly = %+v, want seq 3", snap.Anomalies[0])
	}
	if snap.BudgetJ != 2.5*perObs {
		t.Errorf("BudgetJ = %g, want %g", snap.BudgetJ, 2.5*perObs)
	}
}

// TestDampedSolveSurvivesCollinearity: constant N_viz makes the
// intercept and N_viz columns proportional — plain LS is singular, the
// damped solve stays determined and still recovers α.
func TestDampedSolveSurvivesCollinearity(t *testing.T) {
	ref := NodeCostModel()
	plain := New(Config{Window: 0, Damping: 0})
	damped := New(Config{Window: 0, Damping: 1e-9})
	for i := 0; i < 12; i++ {
		o := ref.Observation(10, 0.5+0.25*float64(i%5), 3, 0, 0)
		plain.Observe(o)
		damped.Observe(o)
	}
	if _, _, _, ok := plain.Coefficients(); ok {
		t.Error("undamped solve claimed success on a singular system")
	}
	_, alpha, _, ok := damped.Coefficients()
	if !ok {
		t.Fatal("damped solve failed on collinear data")
	}
	if math.Abs(alpha-ref.AlphaSPerGB) > 1e-6 {
		t.Errorf("damped α = %g, want ≈ %g", alpha, ref.AlphaSPerGB)
	}
}

// TestConfidenceIntervalContainsReference: on a noise-free stream the
// interval collapses but Contains still accepts the generating α.
func TestConfidenceIntervalContainsReference(t *testing.T) {
	e := New(Config{Window: 0, Damping: 0})
	feed(e, synthObs(25))
	snap := e.Snapshot()
	ref := NodeCostModel()
	if !Contains(snap.Alpha, snap.AlphaCI, ref.AlphaSPerGB) {
		t.Errorf("α=%g ±%g does not contain reference %g", snap.Alpha, snap.AlphaCI, ref.AlphaSPerGB)
	}
	if Contains(snap.Alpha, snap.AlphaCI, ref.AlphaSPerGB*2) {
		t.Error("Contains accepted a wildly wrong reference")
	}
}

// TestTelemetryWiring: model.* metrics land in the registry and the
// float gauges carry the fitted coefficients.
func TestTelemetryWiring(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Window: 0, Damping: 0})
	e.SetTelemetry(reg)
	obs := synthObs(20)
	obs[15].T += 40
	obs[15].TIo += 40
	feed(e, obs)

	snap := reg.Snapshot()
	if got := snap.Counters["model.observations"]; got != 20 {
		t.Errorf("model.observations = %d, want 20", got)
	}
	if got := snap.Counters["model.anomalies.io"]; got != 1 {
		t.Errorf("model.anomalies.io = %d, want 1", got)
	}
	ref := NodeCostModel()
	if got := snap.FloatGauges["model.alpha_s_per_gb"]; math.Abs(got-ref.AlphaSPerGB) > 1e-9 {
		t.Errorf("model.alpha_s_per_gb = %g, want %g", got, ref.AlphaSPerGB)
	}
	if snap.Histograms["model.residual_abs_s"].Count == 0 {
		t.Error("model.residual_abs_s never observed")
	}
	var text bytes.Buffer
	if err := snap.WriteText(&text); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(text.String(), "fgauge model.alpha_s_per_gb ") {
		t.Errorf("text exposition missing fgauge line:\n%s", text.String())
	}
}

// TestOnAnomalyHook: the callback fires outside the lock with the event.
func TestOnAnomalyHook(t *testing.T) {
	e := New(Config{Window: 0, Damping: 0})
	var seen []Anomaly
	e.OnAnomaly(func(a Anomaly) {
		// Re-entering the estimator must not deadlock.
		_ = e.Snapshot()
		seen = append(seen, a)
	})
	obs := synthObs(20)
	obs[12].T += 40
	obs[12].TViz += 40
	feed(e, obs)
	if len(seen) != 1 || seen[0].Kind != KindViz || seen[0].Seq != 13 {
		t.Fatalf("hook saw %+v, want one viz anomaly at seq 13", seen)
	}
}

// TestHandler: /model serves the snapshot JSON, byte-identical to
// WriteJSON.
func TestHandler(t *testing.T) {
	e := New(Config{Window: 0, Damping: 0})
	feed(e, synthObs(10))
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/model", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var want bytes.Buffer
	if err := e.Snapshot().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Errorf("handler body differs from WriteJSON")
	}
	if !strings.Contains(rec.Body.String(), "\"alpha_s_per_gb\"") {
		t.Errorf("body missing alpha field:\n%s", rec.Body.String())
	}
}

// TestNilEstimator: every entry point is a no-op on nil, like nil
// telemetry handles.
func TestNilEstimator(t *testing.T) {
	var e *Estimator
	e.Observe(Observation{T: 1})
	e.SetTelemetry(telemetry.NewRegistry())
	e.OnAnomaly(func(Anomaly) {})
	if _, _, _, ok := e.Coefficients(); ok {
		t.Error("nil estimator claims convergence")
	}
	if s := e.Snapshot(); s.Observations != 0 {
		t.Error("nil estimator has observations")
	}
	if e.Series() != nil {
		t.Error("nil estimator has a series")
	}
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/model", nil))
	if rec.Code != 404 {
		t.Errorf("nil handler status %d, want 404", rec.Code)
	}
}

// TestObserveAllocs pins the hot-path budget: ≤ 1 alloc per observation
// on a windowed estimator in steady state (it is 0 — the ring is
// preallocated and the solve runs on stack arrays).
func TestObserveAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{Window: 64, Damping: 1e-9})
	e.SetTelemetry(reg)
	feed(e, synthObs(128)) // fill the ring, converge the fit
	obs := synthObs(8)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		e.Observe(obs[i%len(obs)])
		i++
	})
	if avg > 1 {
		t.Errorf("Observe allocates %.2f/op, budget is ≤ 1", avg)
	}
}

// TestSeries: predicted-vs-actual pairs come back oldest-first with the
// caller's timestamps.
func TestSeries(t *testing.T) {
	e := New(Config{Window: 4, Damping: 1e-9})
	obs := synthObs(10)
	for i := range obs {
		obs[i].TS = float64(i)
		e.Observe(obs[i])
	}
	series := e.Series()
	if len(series) != 4 {
		t.Fatalf("series length %d, want window 4", len(series))
	}
	for i, pt := range series {
		if pt.TS != float64(6+i) {
			t.Errorf("series[%d].TS = %g, want %g", i, pt.TS, float64(6+i))
		}
		if pt.Actual != obs[6+i].T {
			t.Errorf("series[%d].Actual = %g, want %g", i, pt.Actual, obs[6+i].T)
		}
	}
}

func TestSolve3Singular(t *testing.T) {
	if _, ok := solve3([6]float64{}, [3]float64{}, 0); ok {
		t.Error("solve3 claimed success on the zero matrix")
	}
	// Rank-2: third row a multiple of the first.
	xtx := [6]float64{4, 2, 8, 2, 4, 16}
	if _, ok := solve3(xtx, [3]float64{1, 1, 2}, 0); ok {
		t.Error("solve3 claimed success on a rank-deficient matrix")
	}
	if _, ok := solve3(xtx, [3]float64{1, 1, 2}, 1e-9); !ok {
		t.Error("damped solve3 failed on a rank-deficient matrix")
	}
}

// BenchmarkLiveModelObserve is the estimator's hot path: one
// observation through the windowed estimator, telemetry attached.
func BenchmarkLiveModelObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	e := New(Config{Window: 256, Damping: 1e-9})
	e.SetTelemetry(reg)
	obs := synthObs(256)
	feed(e, obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(obs[i%len(obs)])
	}
}

// TestHardZGatesDuringWarmup: a multi-second stall landing before
// warmup arms the calibrated detectors must still be flagged and gated
// — otherwise it enters the residual statistics and desensitizes every
// later detection. Observation 5 here carries a 30 s stall while
// resCount is still below warmup (4).
func TestHardZGatesDuringWarmup(t *testing.T) {
	ref := NodeCostModel()
	e := New(Config{Window: 0, Damping: 0})
	obs := synthObs(4)
	feed(e, obs)

	stalled := ref.Observation(10, 1.0, 2, 30 /* io stall */, 0)
	e.Observe(stalled)
	feed(e, synthObs(8))

	snap := e.Snapshot()
	if snap.AnomalyCounts.IO != 1 {
		t.Fatalf("io anomalies = %d, want 1 (hard-z during warmup)", snap.AnomalyCounts.IO)
	}
	if len(snap.Anomalies) != 1 || snap.Anomalies[0].Seq != 5 {
		t.Fatalf("anomaly log = %+v, want one io event at seq 5", snap.Anomalies)
	}
	// Gating kept the fit clean: the coefficients still match the
	// generating model exactly.
	if math.Abs(snap.Alpha-ref.AlphaSPerGB) > 1e-6 || math.Abs(snap.Beta-ref.BetaSPerSet) > 1e-6 {
		t.Errorf("fit contaminated: alpha=%g beta=%g, want %g, %g",
			snap.Alpha, snap.Beta, ref.AlphaSPerGB, ref.BetaSPerSet)
	}
}

// TestRegimeChangeConcession: a persistent shift in the observation
// stream (post-processing's dump loop handing over to its viz loop)
// must not gate every observation forever. After maxConsecutiveGated
// trips the estimator resets and refits in the new regime.
func TestRegimeChangeConcession(t *testing.T) {
	ref := NodeCostModel()
	e := New(Config{Window: 0, Damping: 0})
	feed(e, synthObs(20))

	// New regime: constant +40 s offset on every observation from here
	// on — not a burst, a new steady state.
	for i := 0; i < 20; i++ {
		o := ref.Observation(50, 0.5+0.25*float64(i%7), float64(1+i%3), 0, 0)
		e.Observe(o)
	}

	snap := e.Snapshot()
	if snap.RegimeResets != 1 {
		t.Fatalf("regime resets = %d, want 1", snap.RegimeResets)
	}
	if got := snap.AnomalyCounts.IO + snap.AnomalyCounts.Viz; got != 8 {
		t.Errorf("anomalies before concession = %d, want maxConsecutiveGated (8)", got)
	}
	// The refit recovered the new regime's coefficients exactly.
	if !snap.Converged || math.Abs(snap.TSim-50) > 1e-6 ||
		math.Abs(snap.Alpha-ref.AlphaSPerGB) > 1e-6 || math.Abs(snap.Beta-ref.BetaSPerSet) > 1e-6 {
		t.Errorf("post-regime fit tsim=%g alpha=%g beta=%g, want 50, %g, %g",
			snap.TSim, snap.Alpha, snap.Beta, ref.AlphaSPerGB, ref.BetaSPerSet)
	}
	// And the detector re-armed cleanly: no trailing anomaly spam.
	if len(snap.Anomalies) != 8 {
		t.Errorf("anomaly log has %d events, want exactly the 8 pre-concession trips", len(snap.Anomalies))
	}
}
