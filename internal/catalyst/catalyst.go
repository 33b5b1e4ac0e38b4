// Package catalyst models the in-situ coupling layer between the
// simulation and the visualization — the role ParaView Catalyst adaptors
// play in the paper's in-situ pipeline. An adaptor decides at which
// timesteps co-processing fires (the output sampling rate that is the
// paper's central experimental variable), deep-copies simulation data
// structures into visualization-owned buffers ("this incurs additional
// memory operations, but avoids large data transfers to the storage
// system"), and dispatches the copies to registered co-processing
// pipelines.
package catalyst

import (
	"fmt"

	"insituviz/internal/telemetry"
	"insituviz/internal/units"
)

// FieldData is a visualization-owned snapshot of one simulation field at
// one timestep. Its values are a deep copy: the simulation may overwrite
// its own buffers immediately after co-processing returns.
type FieldData struct {
	Name   string
	Step   int
	Time   float64 // simulated seconds
	Values []float64
}

// Bytes returns the copy's payload size.
func (fd *FieldData) Bytes() units.Bytes { return units.Bytes(8 * len(fd.Values)) }

// Pipeline consumes co-processed field snapshots — e.g. a renderer writing
// a Cinema database, or an eddy-census analyzer.
type Pipeline interface {
	// CoProcess handles one snapshot. The pipeline owns fd and may retain
	// it.
	CoProcess(fd *FieldData) error
}

// PipelineFunc adapts a function to the Pipeline interface.
type PipelineFunc func(fd *FieldData) error

// CoProcess calls f(fd).
func (f PipelineFunc) CoProcess(fd *FieldData) error { return f(fd) }

// Adaptor triggers co-processing every N simulation steps and fans each
// snapshot out to the registered pipelines.
type Adaptor struct {
	everySteps int
	pipelines  []Pipeline

	copied      units.Bytes
	invocations int

	// reuse makes CoProcess deep-copy into one retained snapshot instead
	// of allocating a fresh FieldData per invocation (see SetReuse).
	reuse   bool
	scratch FieldData

	// Metric handles (nil without SetTelemetry; nil handles are no-ops).
	mInvocations *telemetry.Counter
	mCopiedBytes *telemetry.Counter
	mReuseHits   *telemetry.Counter
}

// NewAdaptor returns an adaptor that fires every everySteps timesteps
// (step 0 never fires; step everySteps is the first invocation, matching
// "output products are written once in every N simulated hours").
func NewAdaptor(everySteps int) (*Adaptor, error) {
	if everySteps <= 0 {
		return nil, fmt.Errorf("catalyst: trigger period must be positive, got %d", everySteps)
	}
	return &Adaptor{everySteps: everySteps}, nil
}

// AddPipeline registers a co-processing pipeline.
func (a *Adaptor) AddPipeline(p Pipeline) error {
	if p == nil {
		return fmt.Errorf("catalyst: nil pipeline")
	}
	a.pipelines = append(a.pipelines, p)
	return nil
}

// SetReuse selects the snapshot ownership contract. With reuse off (the
// default) every invocation allocates a fresh FieldData that pipelines may
// retain. With reuse on, the adaptor deep-copies into one retained
// snapshot whose Values buffer is overwritten on the next invocation —
// pipelines must consume the data synchronously, which is what the live
// coupled loop does; in exchange the steady-state co-processing path stops
// allocating. The copy semantics ("the simulation may overwrite its own
// buffers immediately") are identical either way.
func (a *Adaptor) SetReuse(reuse bool) { a.reuse = reuse }

// SetTelemetry registers the adaptor's metrics — catalyst.invocations,
// catalyst.copied.bytes, and catalyst.reuse.hits — in reg. A nil registry
// detaches the instrumentation.
func (a *Adaptor) SetTelemetry(reg *telemetry.Registry) {
	a.mInvocations = reg.Counter("catalyst.invocations")
	a.mCopiedBytes = reg.Counter("catalyst.copied.bytes")
	a.mReuseHits = reg.Counter("catalyst.reuse.hits")
}

// ShouldProcess reports whether co-processing fires at the given step.
func (a *Adaptor) ShouldProcess(step int) bool {
	return step > 0 && step%a.everySteps == 0
}

// CoProcess runs the adaptor for one step: when the trigger fires, the
// simulation values are deep-copied into a FieldData and delivered to every
// pipeline. It returns whether the trigger fired. The simValues slice is
// never retained.
func (a *Adaptor) CoProcess(step int, simTime float64, name string, simValues []float64) (bool, error) {
	if !a.ShouldProcess(step) {
		return false, nil
	}
	if len(simValues) == 0 {
		return false, fmt.Errorf("catalyst: empty field %q at step %d", name, step)
	}
	var fd *FieldData
	if a.reuse {
		fd = &a.scratch
		fd.Name, fd.Step, fd.Time = name, step, simTime
		// A reuse hit is a snapshot served from the retained buffer
		// without growing it — the steady state after the first
		// invocation at each field size.
		if cap(fd.Values) >= len(simValues) {
			a.mReuseHits.Inc()
		}
		fd.Values = append(fd.Values[:0], simValues...)
	} else {
		fd = &FieldData{
			Name:   name,
			Step:   step,
			Time:   simTime,
			Values: append([]float64(nil), simValues...),
		}
	}
	a.copied += fd.Bytes()
	a.invocations++
	a.mInvocations.Inc()
	a.mCopiedBytes.Add(int64(fd.Bytes()))
	for i, p := range a.pipelines {
		if err := p.CoProcess(fd); err != nil {
			return true, fmt.Errorf("catalyst: pipeline %d at step %d: %w", i, step, err)
		}
	}
	return true, nil
}

// BytesCopied returns the total simulation-to-visualization copy volume —
// the on-node memory traffic in-situ processing pays in exchange for
// avoiding off-node storage traffic.
func (a *Adaptor) BytesCopied() units.Bytes { return a.copied }

// Invocations returns how many times co-processing fired.
func (a *Adaptor) Invocations() int { return a.invocations }
