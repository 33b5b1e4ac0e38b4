package core

import (
	"math"
	"testing"

	"insituviz/internal/units"
)

func TestEnergyCost(t *testing.T) {
	a := DefaultCostAssumptions()
	// One megawatt-year costs one million dollars by the paper's rule of
	// thumb.
	c, err := a.EnergyCost(units.Joules(JoulesPerMegawattYear))
	if err != nil || math.Abs(c-1e6) > 1e-6 {
		t.Errorf("1 MW-year = $%v (%v), want $1e6", c, err)
	}
	// The DOE exascale cap: 20 MW for a year costs $20M.
	c, err = a.EnergyCost(units.Energy(units.Watts(20e6), units.Years(1)))
	if err != nil || math.Abs(c-20e6) > 1 {
		t.Errorf("20 MW-year = $%v (%v), want $20M", c, err)
	}
	if _, err := a.EnergyCost(-1); err == nil {
		t.Error("negative energy accepted")
	}
	bad := CostAssumptions{}
	if _, err := bad.EnergyCost(1); err == nil {
		t.Error("zero price accepted")
	}
}

func TestCompareCampaigns(t *testing.T) {
	a := DefaultCostAssumptions()
	// The paper's 8-hour configuration: ~122.5 MJ post vs ~58 MJ in-situ.
	cc, err := a.CompareCampaigns(units.Joules(122.5e6), units.Joules(58e6))
	if err != nil {
		t.Fatal(err)
	}
	if cc.SavedDollars <= 0 {
		t.Errorf("savings = $%v", cc.SavedDollars)
	}
	if math.Abs(cc.PostDollars-cc.InSituDollars-cc.SavedDollars) > 1e-9 {
		t.Error("saving is not the difference")
	}
	// A single run's dollars are small; scaled to a year of continuous
	// campaigns they are not: sanity-check the magnitude (~$3.9 per run).
	if cc.PostDollars < 1 || cc.PostDollars > 10 {
		t.Errorf("post campaign = $%v, expected a few dollars", cc.PostDollars)
	}
	if _, err := a.CompareCampaigns(-1, 1); err == nil {
		t.Error("negative post energy accepted")
	}
	if _, err := a.CompareCampaigns(1, -1); err == nil {
		t.Error("negative in-situ energy accepted")
	}
}

func TestPowerUtilization(t *testing.T) {
	// The paper: production machines use 40-55% of budgeted power.
	u, err := PowerUtilization(units.Watts(9e6), units.Watts(20e6))
	if err != nil || math.Abs(u-0.45) > 1e-12 {
		t.Errorf("utilization = %v (%v), want 0.45", u, err)
	}
	if _, err := PowerUtilization(1, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := PowerUtilization(-1, 10); err == nil {
		t.Error("negative observed accepted")
	}
}

func TestTrappedCapacity(t *testing.T) {
	tc, err := TrappedCapacity(units.Watts(9e6), units.Watts(20e6))
	if err != nil || tc != units.Watts(11e6) {
		t.Errorf("trapped = %v (%v), want 11 MW", tc, err)
	}
	// Over-budget draw traps nothing.
	tc, err = TrappedCapacity(units.Watts(21e6), units.Watts(20e6))
	if err != nil || tc != 0 {
		t.Errorf("over-budget trapped = %v (%v), want 0", tc, err)
	}
	if _, err := TrappedCapacity(1, -1); err == nil {
		t.Error("negative budget accepted")
	}
}
