package livemodel

import "insituviz/internal/power"

// CostModel is a deterministic reference cost model: the paper's fitted
// coefficients (Table 3: α ≈ 6.3 s/GB, β ≈ 1.2 s per image set) over a
// flat busy-node draw, the same power.CaddyNodeBusyWatts that
// trace.NodePowerModel uses. LiveRun uses it to synthesize per-sample
// observations from deterministic quantities (committed bytes, frame
// counts, injected stall seconds) instead of wall-clock span times, which
// would break the byte-stability contract of /model and the anomaly log.
// The online estimator then has a known ground truth to converge to, which
// is what the convergence table's contains-reference verdict checks.
type CostModel struct {
	AlphaSPerGB float64 // α: seconds per GB moved
	BetaSPerSet float64 // β: seconds per image set rendered
	PowerW      float64 // flat draw used for E = P·t burn accounting
}

// NodeCostModel returns the per-node reference calibration.
func NodeCostModel() CostModel {
	return CostModel{
		AlphaSPerGB: 6.3,
		BetaSPerSet: 1.2,
		PowerW:      power.CaddyNodeBusyWatts,
	}
}

// Energy evaluates E = P·t.
func (m CostModel) Energy(t float64) float64 { return m.PowerW * t }

// Observation builds the deterministic observation for one sample:
// tsim simulated-solver seconds, sIoGB committed gigabytes, nViz image
// sets, plus ioStall/vizStall injected stall seconds which land in the
// observed time (and its phase split) but not in the modeled cost —
// exactly the excess the residual detectors exist to catch.
func (m CostModel) Observation(tsim, sIoGB, nViz, ioStall, vizStall float64) Observation {
	tIo := m.AlphaSPerGB*sIoGB + ioStall
	tViz := m.BetaSPerSet*nViz + vizStall
	t := tsim + tIo + tViz
	return Observation{
		SIoGB:   sIoGB,
		NViz:    nViz,
		T:       t,
		TIo:     tIo,
		TViz:    tViz,
		EnergyJ: m.Energy(t),
	}
}
