// Package insituviz reproduces "Characterizing and Modeling Power and
// Energy for Extreme-Scale In-Situ Visualization" (Adhinarayanan, Feng,
// Rogers, Ahrens, Pakin — IPDPS 2017) as a library.
//
// It provides three layers:
//
//   - A characterization layer that runs the paper's two visualization
//     pipelines (post-processing and in-situ) on a simulated, fully
//     power-instrumented reproduction of the paper's platform — the
//     150-node Caddy cluster and its private Lustre rack — and reports
//     execution time, average power, energy, and storage (Figs. 3-7).
//
//   - A modeling layer implementing the paper's linear performance /
//     energy / storage model (Eq. 1-7): exact three-point fitting, least
//     squares regression, validation (Fig. 8), and what-if scenario
//     analysis such as storage-vs-rate and energy-vs-rate sweeps for
//     hundred-year simulations (Figs. 9-10).
//
//   - A live scientific stack — an MPAS-style shallow-water ocean solver
//     on an icosahedral Voronoi mesh, Okubo-Weiss eddy detection and
//     tracking, a Catalyst-style in-situ adaptor, a parallel renderer with
//     sort-last compositing writing Cinema-style image databases, and a
//     real netCDF classic writer/reader — so the coupled workflows operate
//     on genuine eddy-bearing data end to end (LiveRun).
//
// The package root re-exports the public surface; implementation lives in
// internal packages (mesh, ocean, eddy, render, catalyst, ncfile, pio,
// lustre, clustersim, power, pipeline, core).
package insituviz

import (
	"insituviz/internal/core"
	"insituviz/internal/pipeline"
	"insituviz/internal/units"
)

// Re-exported quantity types.
type (
	// Seconds is simulated time in seconds.
	Seconds = units.Seconds
	// Watts is electrical power.
	Watts = units.Watts
	// Joules is energy.
	Joules = units.Joules
	// Bytes is a data size.
	Bytes = units.Bytes
)

// Re-exported workflow types.
type (
	// Workload describes one coupled simulation-visualization experiment:
	// grid resolution, simulated span, timestep, and output sampling rate.
	Workload = pipeline.Workload
	// Platform bundles the simulated machine configurations.
	Platform = pipeline.Platform
	// Metrics reports a pipeline run's time, power, energy, and storage.
	Metrics = pipeline.Metrics
	// Kind selects a visualization pipeline.
	Kind = pipeline.Kind
)

// The two pipelines of the study, plus the in-transit extension.
const (
	// PostProcessing writes raw dumps during the simulation and renders
	// them afterwards (Fig. 1a).
	PostProcessing = pipeline.PostProcessing
	// InSitu renders at simulation time and writes only images (Fig. 1b).
	InSitu = pipeline.InSitu
	// InTransit ships sampled fields to a staging partition that renders
	// asynchronously — the extension workflow of Bennett et al. discussed
	// in the paper's related work. Configure the split with
	// Platform.StagingNodes.
	InTransit = pipeline.InTransit
)

// Re-exported modeling types.
type (
	// Model is the paper's fitted linear model (Eq. 1-7).
	Model = core.Model
	// Measurement is one observed pipeline configuration.
	Measurement = core.Measurement
	// Characterization is a measurement campaign over both pipelines.
	Characterization = core.Characterization
	// ValidationReport compares model predictions with measurements.
	ValidationReport = core.ValidationReport
	// RatePoint is one sampling rate in a what-if sweep.
	RatePoint = core.RatePoint
)

// CaddyPlatform returns the paper's measured platform: 150 nodes / 2400
// cores at 15-44 kW metered per ten-node cage, and a 7.7 TB, 160 MB/s
// Lustre rack at 2273-2302 W metered at the PDU, all reporting once per
// minute.
func CaddyPlatform() Platform { return pipeline.CaddyPlatform() }

// ReferenceWorkload returns the paper's measured configuration (60 km
// grid, six simulated months, 30-minute timestep) at the given output
// sampling interval.
func ReferenceWorkload(sampling Seconds) Workload { return pipeline.ReferenceWorkload(sampling) }

// RunPipeline executes one pipeline for the workload on the platform and
// reports the measured metrics.
func RunPipeline(k Kind, w Workload, p Platform) (*Metrics, error) { return pipeline.Run(k, w, p) }

// Characterize runs both pipelines at each sampling interval — the paper's
// measurement campaign. With 8/24/72-hour intervals it reproduces the six
// configurations behind Figs. 3-7.
func Characterize(p Platform, base Workload, intervals []Seconds) (*Characterization, error) {
	return core.Characterize(p, base, intervals)
}

// Hours constructs a simulated time span from hours.
func Hours(h float64) Seconds { return units.Hours(h) }

// Days constructs a simulated time span from days.
func Days(d float64) Seconds { return units.Days(d) }

// Years constructs a simulated time span from (365-day) years.
func Years(y float64) Seconds { return units.Years(y) }

// Minutes constructs a simulated time span from minutes.
func Minutes(m float64) Seconds { return units.Minutes(m) }

// Gigabytes constructs a size from decimal gigabytes.
func Gigabytes(gb float64) Bytes { return units.Gigabytes(gb) }

// Terabytes constructs a size from decimal terabytes.
func Terabytes(tb float64) Bytes { return units.Terabytes(tb) }

// Study is the complete reproduction of the paper's methodology in one
// call: characterize, fit, and validate.
type Study struct {
	Characterization *Characterization
	Model            *Model
	Validation       *ValidationReport
}

// ReproduceStudy runs the full paper methodology on the platform: both
// pipelines at 8/24/72-hour sampling (Figs. 3-7), the Eq. 5 model fit, and
// the Fig. 8 validation.
func ReproduceStudy(p Platform) (*Study, error) {
	base := ReferenceWorkload(Hours(8))
	ch, err := Characterize(p, base, []Seconds{Hours(8), Hours(24), Hours(72)})
	if err != nil {
		return nil, err
	}
	model, err := ch.FitPaperModel()
	if err != nil {
		return nil, err
	}
	val, err := ch.Validate(model)
	if err != nil {
		return nil, err
	}
	return &Study{Characterization: ch, Model: model, Validation: val}, nil
}

// Advisor types: the automated pipeline/sampling-rate selection the paper
// envisions at the end of Section VII.
type (
	// Constraints bounds a planned campaign for the advisor.
	Constraints = core.Constraints
	// Recommendation is the advisor's pipeline and sampling-rate decision.
	Recommendation = core.Recommendation
)

// Recommend selects the pipeline and sampling interval for a campaign of
// simDuration (with the given solver timestep) under the constraints,
// using a fitted model — "an automated framework to decide the sampling
// rate and the pipeline automatically depending on a given set of
// constraints" (Section VII).
func Recommend(m *Model, simDuration, timestep Seconds, c Constraints) (Recommendation, error) {
	return core.Recommend(m, simDuration, timestep, c)
}
