package livemodel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// AnomalyCounts totals detector trips per kind over the whole run
// (retention in the event log is capped; these are not).
type AnomalyCounts struct {
	IO     int `json:"io"`
	Viz    int `json:"viz"`
	Budget int `json:"budget"`
}

// Snapshot is a point-in-time copy of the estimator state, the unit of
// exposition for /model and the exit-time convergence table. Rendering
// is byte-stable: fixed field order, shortest-round-trip floats, no
// wall-clock content — two same-seed runs serialize identically.
type Snapshot struct {
	Observations int `json:"observations"`
	Included     int `json:"included"` // non-gated observations in the fit window
	Window       int `json:"window"`   // 0 = unbounded

	Converged bool `json:"converged"` // a solve has succeeded
	// Identifiable reports whether the *undamped* normal equations are
	// solvable, i.e. the window genuinely constrains all three
	// coefficients. A run whose samples all move the same S_io and
	// N_viz only determines a damped combination of them — the damped
	// solve still converges, but the split between t_sim, α, and β is
	// the regularizer's choice, so the CIs are left 0 and verdicts
	// against reference coefficients should read "indeterminate".
	Identifiable bool    `json:"identifiable"`
	TSim         float64 `json:"tsim_s"`
	Alpha        float64 `json:"alpha_s_per_gb"`
	Beta         float64 `json:"beta_s_per_set"`

	// 95% confidence half-widths from the windowed fit (0 until enough
	// degrees of freedom exist and the fit is identifiable).
	TSimCI  float64 `json:"tsim_ci_s"`
	AlphaCI float64 `json:"alpha_ci_s_per_gb"`
	BetaCI  float64 `json:"beta_ci_s_per_set"`

	// One-step-ahead residual quantiles over the retained window,
	// seconds.
	ResidualP50 float64 `json:"residual_p50_s"`
	ResidualP90 float64 `json:"residual_p90_s"`
	ResidualP99 float64 `json:"residual_p99_s"`

	EnergyJ   float64 `json:"energy_j"`
	BudgetJ   float64 `json:"budget_j"`
	BurnRateW float64 `json:"burn_rate_w"`

	AnomalyCounts AnomalyCounts `json:"anomaly_counts"`
	// RegimeResets counts conceded regime changes: runs of gated
	// observations long enough that the detector refits from the new
	// regime.
	RegimeResets int       `json:"regime_resets"`
	Anomalies    []Anomaly `json:"anomalies"`
}

// Snapshot copies the current state. Safe under concurrent Observe; a
// nil estimator returns an empty snapshot.
func (e *Estimator) Snapshot() *Snapshot {
	s := &Snapshot{Anomalies: []Anomaly{}}
	if e == nil {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	s.Observations = e.total
	s.Included = e.included
	s.Window = e.cfg.Window
	s.Converged = e.coefOK
	s.TSim, s.Alpha, s.Beta = e.coef[0], e.coef[1], e.coef[2]
	s.EnergyJ = e.energyJ
	s.BudgetJ = e.cfg.EnergyBudgetJ
	if e.totalT > 0 {
		s.BurnRateW = e.energyJ / e.totalT
	}
	s.AnomalyCounts = AnomalyCounts{IO: e.nIO, Viz: e.nViz, Budget: e.nBudget}
	s.RegimeResets = e.regimeResets
	s.Anomalies = append(s.Anomalies, e.anomalies...)

	// Residual quantiles over retained one-step-ahead residuals.
	res := make([]float64, 0, e.count)
	e.eachRecord(func(r *record) {
		if r.hadPred {
			res = append(res, r.residual)
		}
	})
	if len(res) > 0 {
		sort.Float64s(res)
		s.ResidualP50 = quantile(res, 0.50)
		s.ResidualP90 = quantile(res, 0.90)
		s.ResidualP99 = quantile(res, 0.99)
	}

	// Confidence half-widths: 2·sqrt(s²·(X'X)⁻¹_jj) with
	// s² = RSS/(n-3) over the included window, the standard OLS
	// interval at ≈95%. Requires a solved fit, spare degrees of
	// freedom, and an *undamped* solvable system — a damped inverse of
	// a collinear window would print confidently tiny intervals around
	// the regularizer's arbitrary split. Otherwise the half-widths stay
	// 0 and Identifiable stays false.
	if e.coefOK && e.included > 3 {
		var rss float64
		e.eachRecord(func(r *record) {
			if !r.gated {
				pred := e.coef[0] + e.coef[1]*r.obs.SIoGB + e.coef[2]*r.obs.NViz
				d := r.obs.T - pred
				rss += d * d
			}
		})
		s2 := rss / float64(e.included-3)
		var ci [3]float64
		okAll := true
		for j := 0; j < 3; j++ {
			var unit [3]float64
			unit[j] = 1
			col, ok := solve3(e.sxx, unit, 0)
			if !ok || col[j] < 0 {
				okAll = false
				break
			}
			ci[j] = 2 * math.Sqrt(s2*col[j])
		}
		if okAll {
			s.Identifiable = true
			s.TSimCI, s.AlphaCI, s.BetaCI = ci[0], ci[1], ci[2]
		}
	}
	return s
}

// eachRecord visits live ring records oldest-first. Callers hold e.mu.
func (e *Estimator) eachRecord(fn func(*record)) {
	if e.cfg.Window > 0 {
		start := e.head - e.count
		if start < 0 {
			start += e.cfg.Window
		}
		for i := 0; i < e.count; i++ {
			fn(&e.ring[(start+i)%e.cfg.Window])
		}
		return
	}
	for i := range e.ring {
		fn(&e.ring[i])
	}
}

// quantile is the nearest-rank quantile of a sorted slice —
// deterministic, no interpolation ties.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Contains reports whether ref lies within the coefficient's confidence
// interval [val-ci, val+ci], with a 1e-6 relative slack so a zero-noise
// fit (ci → 0) still matches its own generating coefficient to rounding.
func Contains(val, ci, ref float64) bool {
	slack := 1e-6 * math.Max(1, math.Abs(ref))
	return math.Abs(val-ref) <= ci+slack
}

// WriteJSON writes the snapshot as indented JSON with a trailing
// newline, the /model response body. Byte-stable for identical state.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("livemodel: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteLog writes the anomaly event log in a plain-text, diff-friendly
// format modeled on faults.WriteLog, closed by one fit-summary line.
// CI's model-smoke job asserts two same-seed runs produce byte-identical
// logs, which covers both the event sequence and the final coefficients.
func (s *Snapshot) WriteLog(w io.Writer) error {
	for _, a := range s.Anomalies {
		if _, err := fmt.Fprintf(w, "model anomaly #%d %s z=%s residual=%s predicted=%s actual=%s\n",
			a.Seq, a.Kind, g(a.Z), g(a.Residual), g(a.Predicted), g(a.Actual)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "model fit observations=%d included=%d tsim=%s alpha=%s beta=%s anomalies io=%d viz=%d budget=%d\n",
		s.Observations, s.Included, g(s.TSim), g(s.Alpha), g(s.Beta),
		s.AnomalyCounts.IO, s.AnomalyCounts.Viz, s.AnomalyCounts.Budget)
	return err
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler returns the /model HTTP endpoint: the current snapshot as
// JSON, re-read on every request under the usual scrape contract. Safe
// on a nil estimator (404).
func (e *Estimator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			http.Error(w, "no model estimator attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := e.Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// SeriesPoint is one predicted-vs-actual pair with its trace timestamp,
// the raw material of the Perfetto counter track export.
type SeriesPoint struct {
	TS        float64 // seconds, caller-supplied at Observe time
	Predicted float64
	Actual    float64
}

// Series returns the retained window's predicted-vs-actual series
// oldest-first (windowed estimators only keep the most recent Window
// points).
func (e *Estimator) Series() []SeriesPoint {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SeriesPoint, 0, e.count)
	e.eachRecord(func(r *record) {
		out = append(out, SeriesPoint{TS: r.obs.TS, Predicted: r.predicted, Actual: r.obs.T})
	})
	return out
}
