// Package pipeline orchestrates the paper's two coupled
// simulation-visualization workflows on the simulated Caddy platform:
//
//   - post-processing: the simulation writes raw netCDF dumps through
//     PIO/Lustre at each sampling point, and after the simulation completes
//     the dumps are read back and rendered in parallel;
//   - in-situ: a Catalyst-style adaptor copies the fields at each sampling
//     point, renders them immediately, and writes only small Cinema images.
//
// Each run advances the cluster simulator through the corresponding phases,
// drives the storage rack, samples the cage and PDU power meters, and
// reports the four metrics of the study: execution time, average power,
// energy, and storage.
package pipeline

import (
	"fmt"
	"math"

	"insituviz/internal/units"
)

// Calibration constants anchored to the paper's fitted model (Section VI):
// a six-simulated-month, 60 km MPAS-O run on 150 nodes spends 603 s in the
// simulation phase over 8640 half-hour steps, writes ~230 GB of raw data
// across 540 outputs at the 8-simulated-hour sampling rate, emits ~1.1 MB
// image sets, and takes beta = 1.2 s to produce one image set.
const (
	// RefGridKM is the reference mesh resolution.
	RefGridKM = 60.0
	// RefNodes is the reference compute allocation.
	RefNodes = 150
	// RefSimSeconds is the simulation-phase time of the reference run.
	RefSimSeconds = 603.0
	// RefSteps is the number of timesteps of the reference run.
	RefSteps = 8640
	// RenderSecondsPerSet is beta: the time to produce one image set.
	RenderSecondsPerSet = 1.2
)

// RefRawBytesPerOutput is the raw dump size of one output at the reference
// resolution (230 GB over 540 outputs).
var RefRawBytesPerOutput = units.Bytes(230e9) / 540

// RefImageSetBytes is the size of one in-situ image set (0.6 GB over 540
// image sets in the fitted model).
var RefImageSetBytes = units.Bytes(0.6e9) / 540

// Workload describes one coupled simulation-visualization experiment.
type Workload struct {
	// GridKM is the nominal mesh resolution in km (60 in the paper's
	// measured runs). Cell count, raw dump size, and per-step compute cost
	// all scale with (RefGridKM/GridKM)^2.
	GridKM float64
	// SimulatedDuration is the physical time span simulated (six months in
	// the measured runs, one hundred years in the what-if analyses).
	SimulatedDuration units.Seconds
	// Timestep is the simulation timestep (30 simulated minutes).
	Timestep units.Seconds
	// SamplingInterval is how often output products are written (the
	// paper's three configurations: every 8, 24, and 72 simulated hours).
	SamplingInterval units.Seconds
	// ImageSetBytes overrides the size of one rendered image set; zero
	// selects the calibrated default.
	ImageSetBytes units.Bytes
}

// ReferenceWorkload returns the paper's measured configuration at the
// given sampling interval: 60 km grid, six simulated months, 30-minute
// timestep.
func ReferenceWorkload(sampling units.Seconds) Workload {
	return Workload{
		GridKM:            RefGridKM,
		SimulatedDuration: units.Hours(4320), // six 30-day months
		Timestep:          units.Minutes(30),
		SamplingInterval:  sampling,
	}
}

// Validate checks the workload's internal consistency.
func (w Workload) Validate() error {
	if w.GridKM <= 0 {
		return fmt.Errorf("pipeline: non-positive grid size %g km", w.GridKM)
	}
	if w.SimulatedDuration <= 0 {
		return fmt.Errorf("pipeline: non-positive simulated duration %v", w.SimulatedDuration)
	}
	if w.Timestep <= 0 {
		return fmt.Errorf("pipeline: non-positive timestep %v", w.Timestep)
	}
	if w.SamplingInterval < w.Timestep {
		return fmt.Errorf("pipeline: sampling interval %v shorter than timestep %v",
			w.SamplingInterval, w.Timestep)
	}
	if _, err := w.StepsPerSample(); err != nil {
		return err
	}
	if w.Steps() < 1 {
		return fmt.Errorf("pipeline: workload simulates no steps")
	}
	if w.ImageSetBytes < 0 {
		return fmt.Errorf("pipeline: negative image set size %v", w.ImageSetBytes)
	}
	return nil
}

// Steps returns the number of simulation timesteps.
func (w Workload) Steps() int {
	return int(math.Floor(float64(w.SimulatedDuration)/float64(w.Timestep) + 0.5))
}

// StepsPerSample returns how many timesteps separate consecutive outputs.
// The sampling interval must be an integer multiple of the timestep.
func (w Workload) StepsPerSample() (int, error) {
	ratio := float64(w.SamplingInterval) / float64(w.Timestep)
	n := math.Floor(ratio + 0.5)
	if n < 1 || math.Abs(ratio-n) > 1e-9 {
		return 0, fmt.Errorf("pipeline: sampling interval %v is not a multiple of timestep %v",
			w.SamplingInterval, w.Timestep)
	}
	return int(n), nil
}

// Outputs returns the number of output products (raw dumps or image sets)
// the run writes.
func (w Workload) Outputs() int {
	sps, err := w.StepsPerSample()
	if err != nil {
		return 0
	}
	return w.Steps() / sps
}

// scale returns the cell-count factor relative to the reference grid.
func (w Workload) scale() float64 {
	r := RefGridKM / w.GridKM
	return r * r
}

// RawBytesPerOutput returns the size of one raw dump at this resolution.
func (w Workload) RawBytesPerOutput() units.Bytes {
	return units.Bytes(float64(RefRawBytesPerOutput) * w.scale())
}

// ImageBytesPerOutput returns the size of one rendered image set.
func (w Workload) ImageBytesPerOutput() units.Bytes {
	if w.ImageSetBytes > 0 {
		return w.ImageSetBytes
	}
	return RefImageSetBytes
}

// SimSecondsPerStep returns the simulation-phase cost of one timestep on
// the given node count, scaled from the reference measurement.
func (w Workload) SimSecondsPerStep(nodes int) (units.Seconds, error) {
	if nodes <= 0 {
		return 0, fmt.Errorf("pipeline: non-positive node count %d", nodes)
	}
	per := RefSimSeconds / RefSteps * w.scale() * float64(RefNodes) / float64(nodes)
	return units.Seconds(per), nil
}
