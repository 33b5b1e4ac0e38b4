package core

// The advisor implements the automation the paper envisions at the end of
// Section VII: "We envision our model being used in an automated framework
// to decide the sampling rate and the pipeline automatically depending on a
// given set of constraints." Given a fitted model and a set of constraints
// — storage budget, energy budget, time deadline, and the science-imposed
// sampling requirement — it selects the pipeline and the sampling interval.

import (
	"errors"
	"fmt"
	"math"

	"insituviz/internal/pipeline"
	"insituviz/internal/units"
)

// ErrInfeasible is returned when no pipeline/rate combination satisfies
// the constraints, or no sampling interval a science requirement.
var ErrInfeasible = errors.New("core: constraints cannot be satisfied")

// Constraints bounds a planned simulation campaign. Zero values disable
// individual constraints.
type Constraints struct {
	// StorageBudget caps the campaign's storage footprint.
	StorageBudget units.Bytes
	// EnergyBudget caps the campaign's workflow energy.
	EnergyBudget units.Joules
	// Deadline caps the campaign's execution time.
	Deadline units.Seconds
	// RequiredInterval is the science floor: outputs must be written at
	// least this often (e.g. daily to track eddies). Zero disables.
	RequiredInterval units.Seconds
	// FinestUsefulInterval is a ceiling on sampling frequency: sampling
	// finer than this wastes resources (e.g. below the simulation
	// timestep). Zero defaults to the workload timestep.
	FinestUsefulInterval units.Seconds
}

// Recommendation is the advisor's decision for one campaign.
type Recommendation struct {
	Kind     pipeline.Kind
	Interval units.Seconds

	// Predictions at the recommended configuration.
	Time    units.Seconds
	Energy  units.Joules
	Storage units.Bytes

	// Rationale explains the binding constraint.
	Rationale string
}

// candidate evaluates one pipeline kind against the constraints, returning
// the finest feasible interval or an error.
func candidate(m *Model, kind pipeline.Kind, simDuration, timestep units.Seconds, c Constraints) (Recommendation, error) {
	finest := c.FinestUsefulInterval
	if finest <= 0 {
		finest = timestep
	}
	iv := finest
	rationale := "sampling as finely as useful"

	if c.StorageBudget > 0 {
		bound, err := m.FinestIntervalUnderStorageBudget(kind, simDuration, c.StorageBudget)
		if err != nil {
			return Recommendation{}, fmt.Errorf("%w: storage budget %v: %v", ErrInfeasible, c.StorageBudget, err)
		}
		if bound > iv {
			iv = bound
			rationale = fmt.Sprintf("storage budget %v binds", c.StorageBudget)
		}
	}
	if c.EnergyBudget > 0 {
		bound, err := m.FinestIntervalUnderEnergyBudget(kind, simDuration, timestep, c.EnergyBudget)
		if err != nil {
			return Recommendation{}, fmt.Errorf("%w: energy budget %v: %v", ErrInfeasible, c.EnergyBudget, err)
		}
		if bound > iv {
			iv = bound
			rationale = fmt.Sprintf("energy budget %v binds", c.EnergyBudget)
		}
	}
	if c.Deadline > 0 {
		// t = tsim' + outputs*(alpha*perGB + beta) <= Deadline.
		iters := float64(simDuration) / float64(timestep)
		tsim := float64(m.TSimRef) * iters / float64(m.RefIterations)
		slack := float64(c.Deadline) - tsim
		perOutput := m.Alpha*m.StorageGB(kind, 1) + m.Beta
		if slack <= 0 {
			return Recommendation{}, fmt.Errorf("%w: deadline %v cannot cover the simulation (%v)",
				ErrInfeasible, c.Deadline, units.Seconds(tsim))
		}
		maxOutputs := slack / perOutput
		if maxOutputs < 1 {
			return Recommendation{}, fmt.Errorf("%w: deadline %v leaves no room for outputs", ErrInfeasible, c.Deadline)
		}
		bound := units.Seconds(float64(simDuration) / maxOutputs)
		if bound > iv {
			iv = bound
			rationale = fmt.Sprintf("deadline %v binds", c.Deadline)
		}
	}

	if c.RequiredInterval > 0 && iv > c.RequiredInterval*(1+1e-12) {
		return Recommendation{}, fmt.Errorf("%w: %v can sample only every %v, science requires every %v",
			ErrInfeasible, kind, iv, c.RequiredInterval)
	}
	// Never sample coarser than the science requirement asks, and never
	// finer than useful: the budgets allow iv or coarser; pick iv itself
	// (the finest feasible), respecting the requirement floor semantics.
	t, err := m.Time(kind, simDuration, timestep, iv)
	if err != nil {
		return Recommendation{}, err
	}
	e, err := m.Energy(kind, simDuration, timestep, iv)
	if err != nil {
		return Recommendation{}, err
	}
	s, err := m.Storage(kind, simDuration, iv)
	if err != nil {
		return Recommendation{}, err
	}
	return Recommendation{Kind: kind, Interval: iv, Time: t, Energy: e, Storage: s, Rationale: rationale}, nil
}

// Recommend selects the pipeline and sampling interval for a campaign of
// simDuration with the given solver timestep. Preference order: the
// feasible candidate with the finest sampling; energy breaks ties.
func Recommend(m *Model, simDuration, timestep units.Seconds, c Constraints) (Recommendation, error) {
	if m == nil {
		return Recommendation{}, errors.New("core: nil model")
	}
	if err := m.Validate(); err != nil {
		return Recommendation{}, err
	}
	if simDuration <= 0 || timestep <= 0 {
		return Recommendation{}, fmt.Errorf("core: non-positive duration %v or timestep %v", simDuration, timestep)
	}
	if c.RequiredInterval > 0 && c.RequiredInterval < timestep {
		return Recommendation{}, fmt.Errorf("core: required interval %v finer than the timestep %v",
			c.RequiredInterval, timestep)
	}

	var best *Recommendation
	var firstErr error
	for _, kind := range []pipeline.Kind{pipeline.InSitu, pipeline.PostProcessing} {
		rec, err := candidate(m, kind, simDuration, timestep, c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil ||
			rec.Interval < best.Interval*(1-1e-12) ||
			(math.Abs(float64(rec.Interval-best.Interval)) <= 1e-9*float64(best.Interval) && rec.Energy < best.Energy) {
			r := rec
			best = &r
		}
	}
	if best == nil {
		if firstErr != nil {
			return Recommendation{}, firstErr
		}
		return Recommendation{}, ErrInfeasible
	}
	return *best, nil
}
