// Package core implements the paper's primary contribution: the
// application-aware, architecture-specific performance / power / energy /
// storage model for coupled simulation-visualization pipelines
// (Sections VI and VII), and the characterization methodology that feeds
// it (Section IV).
//
// The model (paper Eq. 1-4):
//
//	E = P * t                                 (power is flat across pipelines)
//	t = (iter/iter_ref) * t_sim.ref + alpha*S_io + beta*N_viz
//
// with alpha the time to move 1 GB to/from storage and beta the time to
// produce one image set. Storage and image counts scale linearly with the
// sampling rate (Eq. 6-7). The coefficients are obtained either by an exact
// linear solve over three measured configurations — the paper solves
// in-situ@8h, in-situ@72h, post@24h — or by least-squares regression over
// any number of measurements.
//
// # Symbol glossary (paper Table II)
//
//	E           total energy of the pipeline          -> Measurement.Energy / Model.Energy
//	P           average power (flat across pipelines) -> Model.Power
//	t           total execution time                  -> Measurement.Time / Model.Time
//	t_sim       simulation-phase time                 -> Model.TSimRef (at RefIterations)
//	t_i/o       I/O-phase time                        -> alpha * S_io inside Model.Time
//	t_viz       visualization-phase time              -> beta * N_viz inside Model.Time
//	S_i/o       output size written (GB)              -> Measurement.OutputGB / Model.StorageGB
//	N_viz       image sets produced                   -> Measurement.Images / OutputsFor
//	alpha       seconds per GB of storage traffic     -> Model.Alpha
//	beta        seconds per image set                 -> Model.Beta
//	iter_ref    timesteps in the reference run        -> Model.RefIterations
//	iter_any    timesteps of an extrapolated run      -> simDuration / timestep arguments
//	rate_ref/any sampling rates                       -> the interval arguments (rate = 1/interval)
//	t_sim.ref, S_i/o.ref, N_viz.ref                   -> the reference quantities above
//	S_i/o.any, N_viz.any                              -> Model.Storage / OutputsFor at any rate
package core

import (
	"fmt"
	"math"

	"insituviz/internal/linalg"
	"insituviz/internal/pipeline"
	"insituviz/internal/stats"
	"insituviz/internal/units"
)

// Measurement is one observed pipeline configuration: the inputs (S_io in
// GB, N_viz image sets) and the observed time / power / energy / storage.
type Measurement struct {
	Kind     pipeline.Kind
	Sampling units.Seconds // output interval of the configuration

	OutputGB float64 // S_io: total bytes written+materialized, in GB
	Images   int     // N_viz: image sets produced

	Time    units.Seconds
	Power   units.Watts
	Energy  units.Joules
	Storage units.Bytes
}

// FromMetrics converts a pipeline run result into a model measurement.
func FromMetrics(m *pipeline.Metrics) Measurement {
	var outGB float64
	switch m.Kind {
	case pipeline.PostProcessing:
		outGB = (float64(m.Workload.RawBytesPerOutput()) + float64(m.Workload.ImageBytesPerOutput())) *
			float64(m.Outputs) / 1e9
	default:
		outGB = float64(m.Workload.ImageBytesPerOutput()) * float64(m.Outputs) / 1e9
	}
	return Measurement{
		Kind:     m.Kind,
		Sampling: m.Workload.SamplingInterval,
		OutputGB: outGB,
		Images:   m.Images,
		Time:     m.ExecutionTime,
		Power:    m.AvgTotalPower,
		Energy:   m.Energy,
		Storage:  m.StorageUsed,
	}
}

// Model holds the fitted coefficients plus the reference quantities needed
// to extrapolate to other iteration counts and sampling rates.
type Model struct {
	TSimRef units.Seconds // simulation-phase time of the reference run
	Alpha   float64       // seconds per GB of storage traffic
	Beta    float64       // seconds per image set
	Power   units.Watts   // flat average power (Fig. 5)

	RefIterations int // timesteps in the reference run

	// Per-output sizes at the modeled resolution, used by the Eq. 6/7
	// scaling laws.
	RawGBPerOutput float64
	ImgGBPerOutput float64
}

// Validate checks the model's physical plausibility.
func (m *Model) Validate() error {
	if m.TSimRef <= 0 {
		return fmt.Errorf("core: non-positive t_sim %v", m.TSimRef)
	}
	if m.Alpha <= 0 || m.Beta <= 0 {
		return fmt.Errorf("core: non-positive coefficients alpha=%g beta=%g", m.Alpha, m.Beta)
	}
	if m.Power <= 0 {
		return fmt.Errorf("core: non-positive power %v", m.Power)
	}
	if m.RefIterations <= 0 {
		return fmt.Errorf("core: non-positive reference iterations %d", m.RefIterations)
	}
	if m.RawGBPerOutput < 0 || m.ImgGBPerOutput < 0 {
		return fmt.Errorf("core: negative per-output sizes")
	}
	return nil
}

// FitExact solves the paper's Eq. 5: a 3x3 linear system over exactly
// three measured configurations, yielding t_sim, alpha, and beta.
func FitExact(points [3]Measurement) (tsim units.Seconds, alpha, beta float64, err error) {
	a := linalg.NewMatrix(3, 3)
	b := make([]float64, 3)
	for i, p := range points {
		a.Set(i, 0, 1)
		a.Set(i, 1, p.OutputGB)
		a.Set(i, 2, float64(p.Images))
		b[i] = float64(p.Time)
	}
	x, err := linalg.Solve(a, b)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: exact fit: %w", err)
	}
	return units.Seconds(x[0]), x[1], x[2], nil
}

// FitRegression estimates t_sim, alpha, beta by least squares over any
// number (>= 3) of measured configurations — the alternative the paper
// notes for Eq. 5.
func FitRegression(points []Measurement) (tsim units.Seconds, alpha, beta float64, err error) {
	if len(points) < 3 {
		return 0, 0, 0, fmt.Errorf("core: regression needs >= 3 points, got %d", len(points))
	}
	a := linalg.NewMatrix(len(points), 3)
	b := make([]float64, len(points))
	for i, p := range points {
		a.Set(i, 0, 1)
		a.Set(i, 1, p.OutputGB)
		a.Set(i, 2, float64(p.Images))
		b[i] = float64(p.Time)
	}
	x, err := linalg.LeastSquares(a, b)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("core: regression fit: %w", err)
	}
	return units.Seconds(x[0]), x[1], x[2], nil
}

// OutputsFor returns N_viz for a run of simDuration sampled every
// interval (Eq. 7 in ratio form).
func OutputsFor(simDuration, interval units.Seconds) (int, error) {
	if simDuration <= 0 || interval <= 0 {
		return 0, fmt.Errorf("core: non-positive duration %v or interval %v", simDuration, interval)
	}
	return int(math.Floor(float64(simDuration) / float64(interval))), nil
}

// iterationsFor converts a simulated duration to timesteps at the
// reference timestep implied by the model's reference run.
func (m *Model) iterationsFor(simDuration, timestep units.Seconds) (float64, error) {
	if timestep <= 0 {
		return 0, fmt.Errorf("core: non-positive timestep %v", timestep)
	}
	return float64(simDuration) / float64(timestep), nil
}

// StorageGB returns the predicted storage footprint (GB) of a run with the
// given output count (Eq. 6: linear in the sampling rate).
func (m *Model) StorageGB(kind pipeline.Kind, outputs int) float64 {
	switch kind {
	case pipeline.PostProcessing:
		return float64(outputs) * (m.RawGBPerOutput + m.ImgGBPerOutput)
	default:
		return float64(outputs) * m.ImgGBPerOutput
	}
}

// Time predicts the execution time of a pipeline run (Eq. 4):
// t = (iter/iter_ref)*t_sim.ref + alpha*S_io + beta*N_viz.
func (m *Model) Time(kind pipeline.Kind, simDuration, timestep, interval units.Seconds) (units.Seconds, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	iters, err := m.iterationsFor(simDuration, timestep)
	if err != nil {
		return 0, err
	}
	outputs, err := OutputsFor(simDuration, interval)
	if err != nil {
		return 0, err
	}
	sGB := m.StorageGB(kind, outputs)
	t := float64(m.TSimRef)*iters/float64(m.RefIterations) + m.Alpha*sGB + m.Beta*float64(outputs)
	return units.Seconds(t), nil
}

// Energy predicts the energy of a pipeline run (Eq. 1: E = P*t).
func (m *Model) Energy(kind pipeline.Kind, simDuration, timestep, interval units.Seconds) (units.Joules, error) {
	t, err := m.Time(kind, simDuration, timestep, interval)
	if err != nil {
		return 0, err
	}
	return units.Energy(m.Power, t), nil
}

// Storage predicts the storage footprint of a pipeline run.
func (m *Model) Storage(kind pipeline.Kind, simDuration, interval units.Seconds) (units.Bytes, error) {
	outputs, err := OutputsFor(simDuration, interval)
	if err != nil {
		return 0, err
	}
	return units.Bytes(m.StorageGB(kind, outputs) * 1e9), nil
}

// ValidationReport compares model predictions against measurements.
type ValidationReport struct {
	Predicted []float64 // seconds
	Measured  []float64 // seconds
	MAPE      float64   // mean absolute percentage error
	MaxAPE    float64   // worst-case absolute percentage error
}

// ValidateAgainst evaluates the model at each measurement's configuration
// (using the given timestep) and reports the execution-time errors — the
// paper's Fig. 8, which achieved an absolute error under 0.5%.
func (m *Model) ValidateAgainst(points []Measurement, simDuration, timestep units.Seconds) (*ValidationReport, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("core: no validation points")
	}
	rep := &ValidationReport{}
	for _, p := range points {
		t, err := m.Time(p.Kind, simDuration, timestep, p.Sampling)
		if err != nil {
			return nil, err
		}
		rep.Predicted = append(rep.Predicted, float64(t))
		rep.Measured = append(rep.Measured, float64(p.Time))
	}
	var err error
	if rep.MAPE, err = stats.MAPE(rep.Predicted, rep.Measured); err != nil {
		return nil, err
	}
	if rep.MaxAPE, err = stats.MaxAPE(rep.Predicted, rep.Measured); err != nil {
		return nil, err
	}
	return rep, nil
}
