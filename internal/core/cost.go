package core

// Economics of the study's power and energy numbers. The paper's
// introduction anchors the analysis in two facts: a "typical estimate of
// one million dollars per megawatt[-year] means that over 40% of the
// acquisition cost of a supercomputer goes towards paying energy bills",
// and production machines "use only 40-55% of their budgeted power" —
// leaving more than 45% of provisioned capacity trapped (Finding 3). This
// file prices energy and quantifies power utilization and trapped capacity.

import (
	"errors"
	"fmt"

	"insituviz/internal/units"
)

// JoulesPerMegawattYear is the energy of one megawatt sustained for a
// 365-day year.
const JoulesPerMegawattYear = 1e6 * 365 * 86400

// CostAssumptions parameterizes the economics.
type CostAssumptions struct {
	// DollarsPerMegawattYear is the electricity price; the paper's rule of
	// thumb is one million dollars per megawatt-year.
	DollarsPerMegawattYear float64
}

// DefaultCostAssumptions returns the paper's rule-of-thumb electricity price.
func DefaultCostAssumptions() CostAssumptions {
	return CostAssumptions{DollarsPerMegawattYear: 1e6}
}

// Validate checks the assumptions needed for energy pricing.
func (a CostAssumptions) Validate() error {
	if a.DollarsPerMegawattYear <= 0 {
		return fmt.Errorf("core: non-positive energy price %g", a.DollarsPerMegawattYear)
	}
	return nil
}

// EnergyCost prices an amount of energy in dollars.
func (a CostAssumptions) EnergyCost(e units.Joules) (float64, error) {
	if err := a.Validate(); err != nil {
		return 0, err
	}
	if e < 0 {
		return 0, errors.New("core: negative energy")
	}
	return float64(e) / JoulesPerMegawattYear * a.DollarsPerMegawattYear, nil
}

// CampaignCost prices one simulation campaign's measured energy and the
// saving from choosing in-situ.
type CampaignCost struct {
	PostDollars   float64
	InSituDollars float64
	SavedDollars  float64
}

// CompareCampaigns prices two measured workflow energies.
func (a CostAssumptions) CompareCampaigns(postEnergy, inSituEnergy units.Joules) (CampaignCost, error) {
	p, err := a.EnergyCost(postEnergy)
	if err != nil {
		return CampaignCost{}, err
	}
	i, err := a.EnergyCost(inSituEnergy)
	if err != nil {
		return CampaignCost{}, err
	}
	return CampaignCost{PostDollars: p, InSituDollars: i, SavedDollars: p - i}, nil
}

// PowerUtilization returns the fraction of the provisioned power budget an
// observed average draw uses. Production machines sit at 0.40-0.55 per the
// paper's citation of Pakin et al.
func PowerUtilization(observed, budget units.Watts) (float64, error) {
	if budget <= 0 {
		return 0, fmt.Errorf("core: non-positive budget %v", budget)
	}
	if observed < 0 {
		return 0, errors.New("core: negative observed power")
	}
	return float64(observed) / float64(budget), nil
}

// TrappedCapacity returns the provisioned power an observed draw leaves
// unused (never negative).
func TrappedCapacity(observed, budget units.Watts) (units.Watts, error) {
	u, err := PowerUtilization(observed, budget)
	if err != nil {
		return 0, err
	}
	if u >= 1 {
		return 0, nil
	}
	return budget - observed, nil
}
