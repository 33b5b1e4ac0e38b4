package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

const day = 86400.0

func TestObservations(t *testing.T) {
	// A 200-day eddy sampled daily is guaranteed 200 observations.
	n, err := Observations(200*day, day)
	if err != nil || n != 200 {
		t.Errorf("Observations = %d (%v), want 200", n, err)
	}
	// Sampled every 8 days: 25.
	n, err = Observations(200*day, 8*day)
	if err != nil || n != 25 {
		t.Errorf("8-day Observations = %d (%v), want 25", n, err)
	}
	// Shorter than the interval: possibly unseen.
	n, err = Observations(0.5*day, day)
	if err != nil || n != 0 {
		t.Errorf("sub-interval Observations = %d (%v), want 0", n, err)
	}
	if _, err := Observations(-1, day); err == nil {
		t.Error("negative lifetime accepted")
	}
	if _, err := Observations(day, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestExpectedObservations(t *testing.T) {
	eo, err := ExpectedObservations(10*day, day)
	if err != nil || math.Abs(eo-11) > 1e-12 {
		t.Errorf("ExpectedObservations = %v (%v), want 11", eo, err)
	}
	if _, err := ExpectedObservations(-1, day); err == nil {
		t.Error("negative lifetime accepted")
	}
	if _, err := ExpectedObservations(day, -1); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestMissedFraction(t *testing.T) {
	lifetimes := []float64{100 * day, 50 * day, 3 * day, 0.3 * day}
	// Daily sampling, need 5 observations: the 3-day and 0.3-day features
	// miss.
	mf, err := MissedFraction(lifetimes, day, 5)
	if err != nil || mf != 0.5 {
		t.Errorf("MissedFraction = %v (%v), want 0.5", mf, err)
	}
	// Hourly sampling catches everything: even the 0.3-day feature spans
	// 7.2 hours.
	mf, err = MissedFraction(lifetimes, 3600, 5)
	if err != nil || mf != 0 {
		t.Errorf("hourly MissedFraction = %v (%v), want 0", mf, err)
	}
	if _, err := MissedFraction(nil, day, 1); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := MissedFraction(lifetimes, day, 0); err == nil {
		t.Error("zero min observations accepted")
	}
	if _, err := MissedFraction([]float64{-1}, day, 1); err == nil {
		t.Error("negative lifetime accepted")
	}
}

func TestRequirementValidate(t *testing.T) {
	if err := (Requirement{MinObservations: 10, Coverage: 0.9}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Requirement{MinObservations: 0, Coverage: 0.9}).Validate(); err == nil {
		t.Error("zero observations accepted")
	}
	if err := (Requirement{MinObservations: 1, Coverage: 0}).Validate(); err == nil {
		t.Error("zero coverage accepted")
	}
	if err := (Requirement{MinObservations: 1, Coverage: 1.1}).Validate(); err == nil {
		t.Error("over-unity coverage accepted")
	}
}

func TestCoarsestInterval(t *testing.T) {
	lifetimes := []float64{300 * day, 200 * day, 100 * day, 10 * day}
	// Full coverage with 10 observations: bound by the 10-day feature.
	iv, err := CoarsestInterval(lifetimes, Requirement{MinObservations: 10, Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv-day) > 1e-9 {
		t.Errorf("interval = %v days, want 1", iv/day)
	}
	// Boundary, lifetime == k·interval: a feature living exactly k intervals
	// is guaranteed k observations (⌊l/i⌋, not ⌊l/i⌋+1), so one interval
	// coarser than l/k already loses the k-th.
	if n, err := Observations(10*day, day); err != nil || n != 10 {
		t.Errorf("Observations(10 days, 1 day) = %d (%v), want 10", n, err)
	}
	if n, _ := Observations(10*day, iv); n != 10 {
		t.Errorf("returned interval yields %d observations of the binding feature, want 10", n)
	}
	if n, _ := Observations(10*day, math.Nextafter(day, 2*day)); n != 9 {
		t.Errorf("one ulp coarser than l/k yields %d observations, want 9", n)
	}
	// Allowing 25% misses drops the 10-day feature: bound by 100 days.
	iv, err = CoarsestInterval(lifetimes, Requirement{MinObservations: 10, Coverage: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv-10*day) > 1e-9 {
		t.Errorf("interval = %v days, want 10", iv/day)
	}
	// Check the returned interval actually satisfies the requirement.
	mf, err := MissedFraction(lifetimes, iv, 10)
	if err != nil {
		t.Fatal(err)
	}
	if 1-mf < 0.75 {
		t.Errorf("coverage at returned interval = %v", 1-mf)
	}
	// Infeasible: zero-lifetime feature with full coverage.
	if _, err := CoarsestInterval([]float64{0}, Requirement{MinObservations: 1, Coverage: 1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("zero-lifetime err = %v, want ErrInfeasible", err)
	}
	if _, err := CoarsestInterval(nil, Requirement{MinObservations: 1, Coverage: 1}); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := CoarsestInterval(lifetimes, Requirement{}); err == nil {
		t.Error("invalid requirement accepted")
	}
	if _, err := CoarsestInterval([]float64{-day}, Requirement{MinObservations: 1, Coverage: 1}); err == nil {
		t.Error("negative lifetime accepted")
	}
}

func TestCoarsestIntervalProperty(t *testing.T) {
	// The returned interval must always satisfy the requirement, and
	// doubling it must violate it (for strict populations).
	f := func(seed int64, nRaw uint8, minObsRaw uint8) bool {
		n := int(nRaw)%50 + 10
		minObs := int(minObsRaw)%20 + 1
		lifetimes, err := SyntheticLifetimes(n, 120*day, seed)
		if err != nil {
			return false
		}
		req := Requirement{MinObservations: minObs, Coverage: 0.8}
		iv, err := CoarsestInterval(lifetimes, req)
		if err != nil {
			return true // infeasible draws are fine
		}
		mf, err := MissedFraction(lifetimes, iv, minObs)
		if err != nil {
			return false
		}
		return 1-mf >= req.Coverage-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSyntheticLifetimes(t *testing.T) {
	lts, err := SyntheticLifetimes(10000, 120*day, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, lt := range lts {
		if lt < 0 {
			t.Fatal("negative lifetime drawn")
		}
		sum += lt
	}
	mean := sum / float64(len(lts))
	if math.Abs(mean-120*day)/(120*day) > 0.05 {
		t.Errorf("sample mean = %v days, want ~120", mean/day)
	}
	// Deterministic for a fixed seed.
	again, _ := SyntheticLifetimes(10000, 120*day, 7)
	if again[0] != lts[0] || again[9999] != lts[9999] {
		t.Error("seeded draw not deterministic")
	}
	if _, err := SyntheticLifetimes(0, 1, 1); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := SyntheticLifetimes(1, 0, 1); err == nil {
		t.Error("zero mean accepted")
	}
}

func TestSweep(t *testing.T) {
	lifetimes, err := SyntheticLifetimes(2000, 120*day, 3)
	if err != nil {
		t.Fatal(err)
	}
	intervals := []float64{3600, day, 8 * day, 30 * day}
	sums, err := SweepSampling(lifetimes, intervals, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 4 {
		t.Fatalf("sweep rows = %d", len(sums))
	}
	// Missed fraction grows and mean observations shrink as the interval
	// coarsens.
	for i := 1; i < len(sums); i++ {
		if sums[i].MissedFraction < sums[i-1].MissedFraction {
			t.Errorf("missed fraction not monotone at %d: %v < %v",
				i, sums[i].MissedFraction, sums[i-1].MissedFraction)
		}
		if sums[i].MeanObservations >= sums[i-1].MeanObservations {
			t.Errorf("mean observations not decreasing at %d", i)
		}
	}
	// Hourly sampling of 120-day-mean eddies misses almost nothing.
	if sums[0].MissedFraction > 0.01 {
		t.Errorf("hourly missed fraction = %v", sums[0].MissedFraction)
	}
	// Thirty-day sampling misses most of the population.
	if sums[3].MissedFraction < 0.5 {
		t.Errorf("30-day missed fraction = %v", sums[3].MissedFraction)
	}
	if _, err := SweepSampling(lifetimes, nil, 10); err == nil {
		t.Error("empty interval list accepted")
	}
	if _, err := SweepSampling(lifetimes, []float64{0}, 10); err == nil {
		t.Error("zero interval accepted")
	}
}
