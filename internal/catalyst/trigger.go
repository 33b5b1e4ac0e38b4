package catalyst

import (
	"fmt"
	"math"
)

// PeriodicTrigger fires every Every steps (step 0 never fires) — the
// paper's fixed output sampling rate.
type PeriodicTrigger struct {
	Every int
}

// Name identifies the trigger and its period.
func (p *PeriodicTrigger) Name() string { return fmt.Sprintf("periodic(%d)", p.Every) }

// ShouldFire reports whether step is a positive multiple of Every.
func (p *PeriodicTrigger) ShouldFire(step int, _ []float64) bool {
	return p.Every > 0 && step > 0 && step%p.Every == 0
}

// AdaptiveTrigger fires when the field has drifted by more than RelChange
// (relative L2 norm) since the last fired snapshot, but never more often
// than MinInterval steps nor less often than MaxInterval steps. Beyond the
// paper's fixed sampling rates, a data-driven trigger is the natural next
// step for the automated framework Section VII envisions: sample densely
// while the flow changes and sparsely while it is quiescent.
type AdaptiveTrigger struct {
	// MinInterval is the minimum number of steps between firings (>= 1).
	MinInterval int
	// MaxInterval forces a firing after this many steps even without
	// change (>= MinInterval).
	MaxInterval int
	// RelChange is the relative L2 drift that triggers a firing.
	RelChange float64

	lastField []float64
	lastStep  int
	fired     bool
}

// NewAdaptiveTrigger validates and builds an adaptive trigger.
func NewAdaptiveTrigger(minInterval, maxInterval int, relChange float64) (*AdaptiveTrigger, error) {
	if minInterval < 1 {
		return nil, fmt.Errorf("catalyst: minimum interval %d must be >= 1", minInterval)
	}
	if maxInterval < minInterval {
		return nil, fmt.Errorf("catalyst: maximum interval %d below minimum %d", maxInterval, minInterval)
	}
	if relChange <= 0 {
		return nil, fmt.Errorf("catalyst: relative change threshold %g must be positive", relChange)
	}
	return &AdaptiveTrigger{MinInterval: minInterval, MaxInterval: maxInterval, RelChange: relChange}, nil
}

// Name identifies the trigger and its parameters.
func (a *AdaptiveTrigger) Name() string {
	return fmt.Sprintf("adaptive(%d..%d, %.2g)", a.MinInterval, a.MaxInterval, a.RelChange)
}

// ShouldFire decides whether to co-process at step. A positive decision
// records the field as the new reference snapshot.
func (a *AdaptiveTrigger) ShouldFire(step int, field []float64) bool {
	if step <= 0 || len(field) == 0 {
		return false
	}
	if !a.fired {
		// First opportunity at or after MinInterval.
		if step < a.MinInterval {
			return false
		}
		a.remember(step, field)
		return true
	}
	elapsed := step - a.lastStep
	if elapsed < a.MinInterval {
		return false
	}
	if elapsed >= a.MaxInterval {
		a.remember(step, field)
		return true
	}
	if len(field) != len(a.lastField) {
		// Field shape changed: treat as full drift.
		a.remember(step, field)
		return true
	}
	var diff2, ref2 float64
	for i, v := range field {
		d := v - a.lastField[i]
		diff2 += d * d
		ref2 += a.lastField[i] * a.lastField[i]
	}
	if ref2 == 0 {
		if diff2 == 0 {
			return false
		}
		a.remember(step, field)
		return true
	}
	if math.Sqrt(diff2/ref2) >= a.RelChange {
		a.remember(step, field)
		return true
	}
	return false
}

func (a *AdaptiveTrigger) remember(step int, field []float64) {
	a.lastStep = step
	a.fired = true
	a.lastField = append(a.lastField[:0], field...)
}
