package core

import (
	"errors"
	"math"
	"testing"

	"insituviz/internal/pipeline"
	"insituviz/internal/units"
)

// paperModel returns the calibrated model of the study.
func paperModel() *Model {
	return &Model{
		TSimRef:        603,
		Alpha:          6.25,
		Beta:           1.206,
		Power:          46000,
		RefIterations:  8640,
		RawGBPerOutput: 230.0 / 540,
		ImgGBPerOutput: 0.6 / 540,
	}
}

func TestRecommendValidation(t *testing.T) {
	m := paperModel()
	if _, err := Recommend(nil, units.Years(1), units.Minutes(30), Constraints{}); err == nil {
		t.Error("nil model accepted")
	}
	bad := *m
	bad.Alpha = 0
	if _, err := Recommend(&bad, units.Years(1), units.Minutes(30), Constraints{}); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := Recommend(m, 0, units.Minutes(30), Constraints{}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Recommend(m, units.Years(1), 0, Constraints{}); err == nil {
		t.Error("zero timestep accepted")
	}
	if _, err := Recommend(m, units.Years(1), units.Minutes(30),
		Constraints{RequiredInterval: units.Minutes(1)}); err == nil {
		t.Error("sub-timestep requirement accepted")
	}
}

func TestRecommendPaperScenario(t *testing.T) {
	// The paper's Fig. 9 scenario: a 100-year simulation under 2 TB with
	// daily output required. Post-processing is infeasible (forced to
	// ~8 days); the advisor must pick in-situ.
	m := paperModel()
	rec, err := Recommend(m, units.Years(100), units.Minutes(30), Constraints{
		StorageBudget:    2 * units.TB,
		RequiredInterval: units.Days(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != pipeline.InSitu {
		t.Errorf("kind = %v, want in-situ", rec.Kind)
	}
	if rec.Interval > units.Days(1) {
		t.Errorf("interval = %v, violates the daily requirement", rec.Interval)
	}
	if rec.Storage > 2*units.TB {
		t.Errorf("storage = %v, violates the budget", rec.Storage)
	}
	if rec.Rationale == "" {
		t.Error("empty rationale")
	}
}

func TestRecommendUnconstrainedPrefersFinestAndCheapest(t *testing.T) {
	m := paperModel()
	rec, err := Recommend(m, units.Hours(4320), units.Minutes(30), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained: both pipelines can sample every timestep; in-situ
	// wins the energy tie-break.
	if rec.Kind != pipeline.InSitu {
		t.Errorf("kind = %v, want in-situ on energy tie-break", rec.Kind)
	}
	if rec.Interval != units.Minutes(30) {
		t.Errorf("interval = %v, want the timestep", rec.Interval)
	}
}

func TestRecommendStorageBindsPost(t *testing.T) {
	// A giant budget with no science floor: post-processing is feasible
	// but coarser; in-situ still recommended because it samples finer.
	m := paperModel()
	rec, err := Recommend(m, units.Years(100), units.Minutes(30), Constraints{
		StorageBudget:        2 * units.TB,
		FinestUsefulInterval: units.Hours(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != pipeline.InSitu {
		t.Errorf("kind = %v", rec.Kind)
	}
	if rec.Interval != units.Hours(1) {
		t.Errorf("interval = %v, want hourly (in-situ unconstrained by 2 TB)", rec.Interval)
	}
}

func TestRecommendInfeasible(t *testing.T) {
	m := paperModel()
	// Requirement finer than any pipeline can afford under a tiny budget.
	_, err := Recommend(m, units.Years(100), units.Minutes(30), Constraints{
		StorageBudget:    units.Gigabytes(1),
		RequiredInterval: units.Hours(1),
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestRecommendDeadline(t *testing.T) {
	m := paperModel()
	duration := units.Hours(4320) // the reference six months
	// Deadline exactly at the in-situ 8-hour-rate run time (~1255 s):
	// feasible in-situ, infeasible post at that rate.
	deadline := units.Seconds(1300)
	rec, err := Recommend(m, duration, units.Minutes(30), Constraints{
		Deadline:             deadline,
		FinestUsefulInterval: units.Hours(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != pipeline.InSitu {
		t.Errorf("kind = %v, want in-situ under a tight deadline", rec.Kind)
	}
	if rec.Time > deadline {
		t.Errorf("recommended time %v exceeds deadline %v", rec.Time, deadline)
	}
	// A deadline below the pure simulation time is infeasible for both.
	if _, err := Recommend(m, duration, units.Minutes(30), Constraints{Deadline: 500}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("impossible deadline err = %v", err)
	}
}

func TestRecommendEnergyBudget(t *testing.T) {
	m := paperModel()
	duration := units.Years(10)
	ts := units.Minutes(30)
	// Give a budget that allows daily in-situ but not daily post.
	eIn, err := m.Energy(pipeline.InSitu, duration, ts, units.Days(1))
	if err != nil {
		t.Fatal(err)
	}
	budget := units.Joules(float64(eIn) * 1.05)
	rec, err := Recommend(m, duration, ts, Constraints{
		EnergyBudget:     budget,
		RequiredInterval: units.Days(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != pipeline.InSitu {
		t.Errorf("kind = %v", rec.Kind)
	}
	if rec.Energy > budget {
		t.Errorf("energy %v exceeds budget %v", rec.Energy, budget)
	}
	if rec.Interval > units.Days(1)*(1+1e-9) {
		t.Errorf("interval %v violates the daily requirement", rec.Interval)
	}
}

func TestRecommendationPredictionsConsistent(t *testing.T) {
	m := paperModel()
	rec, err := Recommend(m, units.Years(50), units.Minutes(30), Constraints{
		StorageBudget: 10 * units.TB,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantT, err := m.Time(rec.Kind, units.Years(50), units.Minutes(30), rec.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rec.Time-wantT)) > 1e-6*float64(wantT) {
		t.Errorf("recommendation time %v != model %v", rec.Time, wantT)
	}
	wantE := units.Energy(m.Power, wantT)
	if math.Abs(float64(rec.Energy-wantE)) > 1e-6*float64(wantE) {
		t.Errorf("recommendation energy %v != model %v", rec.Energy, wantE)
	}
}
