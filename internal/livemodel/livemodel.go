// Package livemodel fits the paper's cost model online, while a run is
// still executing. The offline pipeline (internal/core, cmd/modelfit)
// fits
//
//	t = t_sim + α·S_io + β·N_viz
//
// over finished characterization runs; this package maintains the same
// fit continuously from per-sample observations streamed out of LiveRun
// or the simulated pipeline, so the coefficients, their residuals, and
// an energy burn-rate are available *during* the run — the first half of
// the ROADMAP's "online model-driven control" item, and the signal a
// later adaptive-cadence / admission-control loop consumes.
//
// The estimator is a windowed recursive least-squares fit over the
// normal equations: each observation contributes a rank-one update to
// X'X and X'y, observations expiring from the sliding window contribute
// the matching downdate, and the 3x3 system is re-solved after every
// update with a hand-rolled pivoted elimination (no allocation on the
// hot path). Two properties are contractual, mirroring the rest of the
// observability stack:
//
//   - Determinism. The fit is a pure function of the observation
//     sequence: same seed → same observations → byte-identical /model
//     JSON, anomaly log, and convergence table. No wall-clock time or
//     map iteration enters the numerics.
//
//   - Hot-path economy. Observe performs no heap allocation in steady
//     state (≤ 1 alloc/op including ring growth on unbounded windows),
//     so feeding the estimator from the driver goroutine does not
//     perturb the run being modeled.
//
// Residual-driven anomaly detection rides on the fit: each observation
// is first predicted from the current coefficients, the one-step-ahead
// residual feeds a z-score and a one-sided CUSUM detector, and trips are
// classified as I/O stalls or viz overload by which phase overshot its
// modeled share. Anomalous observations are excluded from the fit
// (anomaly gating), so a Lustre stall shows up as an event rather than
// silently biasing α. An optional energy budget adds a third anomaly
// kind when the integrated burn crosses it.
package livemodel

import (
	"math"
	"sync"

	"insituviz/internal/telemetry"
)

// Observation is one per-sample measurement fed to the estimator: the
// regressors of the paper's model plus the phase split used to classify
// anomalies and the energy burned over the sample window.
type Observation struct {
	SIoGB   float64 // S_io: data moved to/from storage, GB
	NViz    float64 // N_viz: image sets produced
	T       float64 // t: total observed seconds for the sample window
	TIo     float64 // observed I/O share of T, seconds (anomaly classification)
	TViz    float64 // observed viz share of T, seconds (anomaly classification)
	EnergyJ float64 // energy burned over the window, joules
	TS      float64 // trace timestamp of the observation, seconds (export only)
}

// Anomaly kinds, in the order anomaly counters report them.
const (
	KindIO     = "io"     // I/O stall: I/O phase overshot α·S_io
	KindViz    = "viz"    // viz overload: viz phase overshot β·N_viz
	KindBudget = "budget" // energy burn crossed the configured budget
)

// Anomaly is one detector trip. Seq is the 1-based observation index, so
// same-seed runs log identical sequences.
type Anomaly struct {
	Seq       int     `json:"seq"`
	Kind      string  `json:"kind"`
	Z         float64 `json:"z"`
	Residual  float64 `json:"residual_s"`
	Predicted float64 `json:"predicted_s"`
	Actual    float64 `json:"actual_s"`
}

// Detector constants.
const (
	// warmup is the number of accepted observations before anomaly
	// detection arms (the first few residuals calibrate σ).
	warmup = 4
	// cusumDrift is the slack k subtracted per step from the one-sided
	// CUSUM sum.
	cusumDrift = 0.5
	// minSigma floors the residual σ used for z-scores, so a perfectly
	// converged fit (σ→0) does not flag femtosecond jitter. Seconds.
	minSigma = 1e-3
	// maxConsecutiveGated bounds the gating death-spiral on a genuine
	// regime change (post-processing's dump loop handing over to its viz
	// loop shifts every observation at once): after this many consecutive
	// gated observations the detector concedes, resets the window and
	// residual statistics, and refits from the new regime.
	maxConsecutiveGated = 8
	// maxAnomalies caps the retained event log.
	maxAnomalies = 256
)

// Config parameterizes an Estimator. The zero value, passed through
// defaults, is a reasonable live configuration; tests that want exact
// batch-least-squares equivalence set Window: 0 and Damping: 0.
type Config struct {
	// Window is the sliding-window size in observations; 0 fits over the
	// whole run (unbounded).
	Window int
	// Damping is the relative ridge applied to each diagonal entry of
	// X'X (a[i][i] *= 1+Damping). Within a single run N_viz is often
	// constant, which makes the intercept and N_viz columns collinear; a
	// tiny relative ridge keeps the solve determined without visibly
	// biasing α. 0 disables damping, for exact least-squares equivalence.
	Damping float64
	// ZThreshold trips the z-score detector. Default 6.
	ZThreshold float64
	// HardZ trips (and gates) even before warmup arms the calibrated
	// detectors: an egregious outlier against the minSigma floor — an
	// injected multi-second stall landing in the first few samples —
	// must not enter the residual statistics it would later be judged
	// by. Default 1000.
	HardZ float64
	// CUSUMThreshold is the CUSUM trip level h. Default 8.
	CUSUMThreshold float64
	// EnergyBudgetJ, when positive, arms the budget detector: the first
	// observation that pushes cumulative energy past it logs a budget
	// anomaly. Joules.
	EnergyBudgetJ float64
}

func (c Config) withDefaults() Config {
	if c.ZThreshold <= 0 {
		c.ZThreshold = 6
	}
	if c.HardZ <= 0 {
		c.HardZ = 1000
	}
	if c.CUSUMThreshold <= 0 {
		c.CUSUMThreshold = 8
	}
	return c
}

// record is one ring entry: the observation plus what the estimator knew
// when it arrived.
type record struct {
	obs       Observation
	predicted float64
	residual  float64
	gated     bool // excluded from the fit (anomalous)
	hadPred   bool // a prediction existed when the observation arrived
}

// Estimator is the online fit. Safe for one writer (Observe) and any
// number of concurrent readers (Snapshot, Handler); all state is guarded
// by one mutex. A nil *Estimator ignores observations, so call sites can
// wire it unconditionally, like a nil telemetry handle.
type Estimator struct {
	cfg Config

	mu    sync.Mutex
	ring  []record
	head  int // next slot to overwrite when the window is full
	count int // live records in ring
	total int // observations ever seen

	// Normal equations over the non-gated window: X'X (symmetric,
	// packed upper triangle) and X'y for the design (1, S_io, N_viz).
	sxx      [6]float64
	sxy      [3]float64
	included int

	coef   [3]float64 // (t_sim, α, β)
	coefOK bool

	// One-step-ahead residual statistics over accepted observations
	// (Welford), feeding the z-score, plus the one-sided CUSUM sum.
	resCount int
	resMean  float64
	resM2    float64
	cusum    float64

	consecGated  int
	regimeResets int

	energyJ       float64
	totalT        float64
	budgetTripped bool

	anomalies []Anomaly
	nIO       int
	nViz      int
	nBudget   int

	// Telemetry handles; nil until SetTelemetry, nil-safe throughout.
	mObs      *telemetry.Counter
	mAnomIO   *telemetry.Counter
	mAnomViz  *telemetry.Counter
	mAnomBud  *telemetry.Counter
	mAlpha    *telemetry.FloatGauge
	mBeta     *telemetry.FloatGauge
	mTSim     *telemetry.FloatGauge
	mBurn     *telemetry.FloatGauge
	mEnergy   *telemetry.FloatGauge
	mResidual *telemetry.Histogram

	onAnomaly func(Anomaly)
}

// New returns an estimator for cfg (see Config for defaults).
func New(cfg Config) *Estimator {
	cfg = cfg.withDefaults()
	e := &Estimator{cfg: cfg}
	if cfg.Window > 0 {
		e.ring = make([]record, cfg.Window)
	}
	return e
}

// SetTelemetry registers the model.* metrics on reg and publishes into
// them from every Observe. Call before feeding observations; a nil
// registry (or estimator) is a no-op.
func (e *Estimator) SetTelemetry(reg *telemetry.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mObs = reg.Counter("model.observations")
	e.mAnomIO = reg.Counter("model.anomalies.io")
	e.mAnomViz = reg.Counter("model.anomalies.viz")
	e.mAnomBud = reg.Counter("model.anomalies.budget")
	e.mAlpha = reg.FloatGauge("model.alpha_s_per_gb")
	e.mBeta = reg.FloatGauge("model.beta_s_per_set")
	e.mTSim = reg.FloatGauge("model.tsim_s")
	e.mBurn = reg.FloatGauge("model.burn_rate_w")
	e.mEnergy = reg.FloatGauge("model.energy_j")
	e.mResidual = reg.Histogram("model.residual_abs_s", []float64{
		1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2, 5, 10, 60,
	})
}

// OnAnomaly registers fn to be called (outside the estimator lock, from
// the Observe caller's goroutine) for every detector trip — the hook
// live.go uses to emit trace Instant events.
func (e *Estimator) OnAnomaly(fn func(Anomaly)) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.onAnomaly = fn
	e.mu.Unlock()
}

// Observe feeds one sample. The hot path performs no heap allocation in
// steady state: ring slots are preallocated (windowed) or grown
// amortized (unbounded), the solve runs on fixed-size stack arrays, and
// telemetry updates are atomic stores.
func (e *Estimator) Observe(o Observation) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.total++
	e.energyJ += o.EnergyJ
	e.totalT += o.T

	rec := record{obs: o}
	if e.coefOK {
		rec.hadPred = true
		rec.predicted = e.coef[0] + e.coef[1]*o.SIoGB + e.coef[2]*o.NViz
		rec.residual = o.T - rec.predicted
	} else {
		rec.predicted = o.T
	}

	var fired [2]Anomaly // at most residual trip + budget trip per observation
	nFired := 0

	// Residual detectors. The calibrated z/CUSUM pair arms once warmup
	// accepted observations exist; before that a hard-z fast path
	// (egregious outliers against the minSigma floor) still flags and
	// gates, so a stall landing during warmup cannot poison the very
	// statistics that would later detect it.
	if rec.hadPred {
		armed := e.resCount >= warmup
		sigma := minSigma
		if armed && e.resCount > 1 {
			if s := math.Sqrt(e.resM2 / float64(e.resCount-1)); s > sigma {
				sigma = s
			}
		}
		z := (rec.residual - e.resMean) / sigma
		trip := false
		if armed {
			e.cusum += z - cusumDrift
			if e.cusum < 0 {
				e.cusum = 0
			}
			trip = math.Abs(z) > e.cfg.ZThreshold || e.cusum > e.cfg.CUSUMThreshold
		} else {
			trip = math.Abs(z) > e.cfg.HardZ
		}
		if trip {
			e.cusum = 0
			rec.gated = true
			kind := KindViz
			// Classify by which phase overshot its modeled share.
			excessIO := o.TIo - e.coef[1]*o.SIoGB
			excessViz := o.TViz - e.coef[2]*o.NViz
			if excessIO >= excessViz {
				kind = KindIO
			}
			fired[nFired] = Anomaly{
				Seq: e.total, Kind: kind, Z: z,
				Residual: rec.residual, Predicted: rec.predicted, Actual: o.T,
			}
			nFired++
			e.consecGated++
			if e.consecGated >= maxConsecutiveGated {
				// Regime change: this many consecutive trips is not a
				// burst of stalls, it is a new steady state the old fit
				// cannot describe. Concede — drop the window and the
				// residual calibration and start learning the new
				// regime, beginning with this observation (its residual
				// is against the dead regime, so it does not seed the
				// fresh statistics).
				e.resetRegime()
				rec.gated = false
				rec.hadPred = false
			}
		} else {
			e.consecGated = 0
		}
	}

	// Budget detector: trips once, at the crossing.
	if e.cfg.EnergyBudgetJ > 0 && !e.budgetTripped && e.energyJ > e.cfg.EnergyBudgetJ {
		e.budgetTripped = true
		fired[nFired] = Anomaly{
			Seq: e.total, Kind: KindBudget, Z: 0,
			Residual: rec.residual, Predicted: rec.predicted, Actual: o.T,
		}
		nFired++
	}

	// Window expiry before insert.
	if e.cfg.Window > 0 && e.count == e.cfg.Window {
		old := &e.ring[e.head]
		if !old.gated {
			e.downdate(old.obs)
		}
		e.count--
	}
	// Insert.
	if e.cfg.Window > 0 {
		e.ring[e.head] = rec
		e.head = (e.head + 1) % e.cfg.Window
		e.count++
	} else {
		e.ring = append(e.ring, rec)
		e.count++
	}

	if !rec.gated {
		e.update(o)
		if rec.hadPred {
			// Welford over accepted residuals.
			e.resCount++
			d := rec.residual - e.resMean
			e.resMean += d / float64(e.resCount)
			e.resM2 += d * (rec.residual - e.resMean)
		}
		e.refit()
	}

	// Anomaly bookkeeping.
	for i := 0; i < nFired; i++ {
		a := fired[i]
		if len(e.anomalies) < maxAnomalies {
			e.anomalies = append(e.anomalies, a)
		}
		switch a.Kind {
		case KindIO:
			e.nIO++
			e.mAnomIO.Inc()
		case KindViz:
			e.nViz++
			e.mAnomViz.Inc()
		case KindBudget:
			e.nBudget++
			e.mAnomBud.Inc()
		}
	}

	// Telemetry (atomic stores; all nil-safe).
	e.mObs.Inc()
	if e.coefOK {
		e.mTSim.Set(e.coef[0])
		e.mAlpha.Set(e.coef[1])
		e.mBeta.Set(e.coef[2])
	}
	e.mEnergy.Set(e.energyJ)
	if e.totalT > 0 {
		e.mBurn.Set(e.energyJ / e.totalT)
	}
	if rec.hadPred {
		e.mResidual.Observe(math.Abs(rec.residual))
	}
	cb := e.onAnomaly
	e.mu.Unlock()

	if cb != nil {
		for i := 0; i < nFired; i++ {
			cb(fired[i])
		}
	}
}

// resetRegime discards the fit window, coefficients, and residual
// statistics after a conceded regime change. Cumulative quantities
// (total, energy, anomaly log, counters) survive; the retained
// predicted-vs-actual series restarts from the new regime.
func (e *Estimator) resetRegime() {
	e.sxx = [6]float64{}
	e.sxy = [3]float64{}
	e.included = 0
	e.coef = [3]float64{}
	e.coefOK = false
	e.resCount, e.resMean, e.resM2, e.cusum = 0, 0, 0, 0
	e.consecGated = 0
	e.head, e.count = 0, 0
	if e.cfg.Window == 0 {
		e.ring = e.ring[:0]
	}
	e.regimeResets++
}

// update adds one observation's rank-one contribution to the normal
// equations.
func (e *Estimator) update(o Observation) {
	s, n, t := o.SIoGB, o.NViz, o.T
	e.sxx[0] += 1
	e.sxx[1] += s
	e.sxx[2] += n
	e.sxx[3] += s * s
	e.sxx[4] += s * n
	e.sxx[5] += n * n
	e.sxy[0] += t
	e.sxy[1] += s * t
	e.sxy[2] += n * t
	e.included++
}

// downdate removes an expired observation's contribution.
func (e *Estimator) downdate(o Observation) {
	s, n, t := o.SIoGB, o.NViz, o.T
	e.sxx[0] -= 1
	e.sxx[1] -= s
	e.sxx[2] -= n
	e.sxx[3] -= s * s
	e.sxx[4] -= s * n
	e.sxx[5] -= n * n
	e.sxy[0] -= t
	e.sxy[1] -= s * t
	e.sxy[2] -= n * t
	e.included--
}

// refit re-solves the (possibly damped) normal equations. With fewer
// included observations than parameters the previous coefficients are
// kept (coefOK stays false until the first successful solve).
func (e *Estimator) refit() {
	if e.included < 3 {
		return
	}
	coef, ok := solve3(e.sxx, e.sxy, e.cfg.Damping)
	if ok {
		e.coef = coef
		e.coefOK = true
	}
}

// solve3 solves the 3x3 symmetric system packed in sxx (upper triangle:
// [00 01 02 11 12 22]) against rhs, with optional relative per-diagonal
// ridge damping, by Gaussian elimination with partial pivoting on
// fixed-size stack arrays. Reports false when the (damped) system is
// numerically singular. Deterministic: no randomness, no map iteration.
func solve3(sxx [6]float64, rhs [3]float64, damping float64) ([3]float64, bool) {
	var a [3][4]float64
	a[0][0], a[0][1], a[0][2] = sxx[0], sxx[1], sxx[2]
	a[1][0], a[1][1], a[1][2] = sxx[1], sxx[3], sxx[4]
	a[2][0], a[2][1], a[2][2] = sxx[2], sxx[4], sxx[5]
	if damping > 0 {
		for i := 0; i < 3; i++ {
			if a[i][i] != 0 {
				a[i][i] *= 1 + damping
			} else {
				a[i][i] = damping
			}
		}
	}
	a[0][3], a[1][3], a[2][3] = rhs[0], rhs[1], rhs[2]

	// Row scale for the singularity test, so the threshold is relative
	// to the problem's magnitude.
	var scale float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if v := math.Abs(a[i][j]); v > scale {
				scale = v
			}
		}
	}
	if scale == 0 {
		return [3]float64{}, false
	}
	tiny := scale * 1e-14

	for col := 0; col < 3; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) <= tiny {
			return [3]float64{}, false
		}
		if pivot != col {
			a[pivot], a[col] = a[col], a[pivot]
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < 4; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	var x [3]float64
	for i := 2; i >= 0; i-- {
		v := a[i][3]
		for j := i + 1; j < 3; j++ {
			v -= a[i][j] * x[j]
		}
		x[i] = v / a[i][i]
	}
	return x, true
}

// Coefficients returns the current (t_sim, α, β) and whether a solve has
// succeeded yet.
func (e *Estimator) Coefficients() (tsim, alpha, beta float64, ok bool) {
	if e == nil {
		return 0, 0, 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.coef[0], e.coef[1], e.coef[2], e.coefOK
}
