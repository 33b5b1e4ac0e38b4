package core

// Temporal sampling adequacy: whether an output sampling interval is
// frequent enough to observe the scientific phenomenon. The paper's
// motivating example is eddy tracking — "eddies in the ocean exist for
// hundreds of days while traveling hundreds of kilometers; to effectively
// track their movement, the output has to be written once per simulated
// day (or even hour)" (Section VII) — while storage constraints push
// scientists toward the coarse sampling the paper calls temporal sampling
// (Section II). This file quantifies that tension: observation counts,
// missed-feature fractions, and the coarsest interval meeting a science
// requirement, which the model then prices in storage and energy.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Observations returns how many sampling points land within a feature of
// the given lifetime when outputs are written every interval. A feature
// born uniformly at random relative to the sampling grid is observed
// floor(lifetime/interval) or that plus one times; this returns the
// guaranteed (worst-case) count.
func Observations(lifetime, interval float64) (int, error) {
	if lifetime < 0 {
		return 0, fmt.Errorf("core: negative lifetime %g", lifetime)
	}
	if interval <= 0 {
		return 0, fmt.Errorf("core: non-positive interval %g", interval)
	}
	return int(math.Floor(lifetime / interval)), nil
}

// ExpectedObservations returns the mean number of observations of a
// feature of the given lifetime under a uniformly random phase offset:
// lifetime/interval (plus the endpoint average of 1).
func ExpectedObservations(lifetime, interval float64) (float64, error) {
	if lifetime < 0 {
		return 0, fmt.Errorf("core: negative lifetime %g", lifetime)
	}
	if interval <= 0 {
		return 0, fmt.Errorf("core: non-positive interval %g", interval)
	}
	return lifetime/interval + 1, nil
}

// MissedFraction returns the fraction of features that are guaranteed to
// be observed fewer than minObs times at the given interval.
func MissedFraction(lifetimes []float64, interval float64, minObs int) (float64, error) {
	if len(lifetimes) == 0 {
		return 0, errors.New("core: empty lifetime sample")
	}
	if minObs < 1 {
		return 0, fmt.Errorf("core: minimum observations %d must be positive", minObs)
	}
	missed := 0
	for _, lt := range lifetimes {
		n, err := Observations(lt, interval)
		if err != nil {
			return 0, err
		}
		if n < minObs {
			missed++
		}
	}
	return float64(missed) / float64(len(lifetimes)), nil
}

// Requirement is a science-driven sampling constraint: at least
// MinObservations samples for at least Coverage of the features.
type Requirement struct {
	MinObservations int
	Coverage        float64 // fraction in (0, 1]
}

// Validate checks the requirement.
func (r Requirement) Validate() error {
	if r.MinObservations < 1 {
		return fmt.Errorf("core: minimum observations %d must be positive", r.MinObservations)
	}
	if r.Coverage <= 0 || r.Coverage > 1 {
		return fmt.Errorf("core: coverage %g outside (0, 1]", r.Coverage)
	}
	return nil
}

// CoarsestInterval returns the largest sampling interval meeting the
// requirement for the observed lifetime population: the longest interval
// such that at least Coverage of features get MinObservations samples.
func CoarsestInterval(lifetimes []float64, req Requirement) (float64, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	if len(lifetimes) == 0 {
		return 0, errors.New("core: empty lifetime sample")
	}
	// A feature of lifetime L gets >= k observations iff interval <= L/k.
	// The requirement holds iff interval <= the (1-Coverage) quantile of
	// L/MinObservations over features (lower quantile, conservative).
	bounds := make([]float64, len(lifetimes))
	for i, lt := range lifetimes {
		if lt < 0 {
			return 0, fmt.Errorf("core: negative lifetime %g", lt)
		}
		bounds[i] = lt / float64(req.MinObservations)
	}
	sort.Float64s(bounds)
	// We may miss at most (1-Coverage) of the features: those with the
	// smallest bounds. The binding constraint is the smallest bound among
	// the features we must cover.
	allowedMisses := int(math.Floor(float64(len(bounds)) * (1 - req.Coverage)))
	idx := allowedMisses
	if idx >= len(bounds) {
		idx = len(bounds) - 1
	}
	iv := bounds[idx]
	if iv <= 0 {
		return 0, fmt.Errorf("%w: a required feature has zero lifetime", ErrInfeasible)
	}
	// Round one ulp toward zero so the boundary feature's floor(L/iv)
	// cannot drop below MinObservations from floating-point rounding.
	return math.Nextafter(iv, 0), nil
}

// SyntheticLifetimes draws n feature lifetimes from an exponential
// distribution with the given mean — the standard minimal model for eddy
// lifetime populations (many short-lived, a long tail of persistent ones;
// the paper cites eddies living "hundreds of days"). The draw is
// deterministic for a given seed.
func SyntheticLifetimes(n int, mean float64, seed int64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive sample size %d", n)
	}
	if mean <= 0 {
		return nil, fmt.Errorf("core: non-positive mean lifetime %g", mean)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64() * mean
	}
	return out, nil
}

// SamplingSummary describes a lifetime population's sampling behaviour at
// one interval.
type SamplingSummary struct {
	Interval         float64
	MeanObservations float64
	MissedFraction   float64 // features with fewer than MinObs observations
	MinObs           int
}

// SweepSampling evaluates a set of intervals against a lifetime population.
func SweepSampling(lifetimes []float64, intervals []float64, minObs int) ([]SamplingSummary, error) {
	if len(intervals) == 0 {
		return nil, errors.New("core: no intervals")
	}
	out := make([]SamplingSummary, 0, len(intervals))
	for _, iv := range intervals {
		mf, err := MissedFraction(lifetimes, iv, minObs)
		if err != nil {
			return nil, err
		}
		var meanObs float64
		for _, lt := range lifetimes {
			eo, err := ExpectedObservations(lt, iv)
			if err != nil {
				return nil, err
			}
			meanObs += eo
		}
		meanObs /= float64(len(lifetimes))
		out = append(out, SamplingSummary{Interval: iv, MeanObservations: meanObs, MissedFraction: mf, MinObs: minObs})
	}
	return out, nil
}
