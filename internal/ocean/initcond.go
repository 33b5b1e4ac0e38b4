package ocean

import (
	"fmt"
	"math"

	"insituviz/internal/mesh"
)

// zonalFlowState builds a State from a zonal velocity profile u(lat) and a
// height profile h(lat), sampling u at edge midpoints (projected onto each
// edge normal) and h at cell centers.
func zonalFlowState(m *mesh.Mesh, uAt func(lat float64) float64, hAt func(lat float64) float64) *State {
	s := NewState(m.NCells(), m.NEdges())
	for ci := range m.Cells {
		s.Thickness[ci] = hAt(m.Cells[ci].Lat)
	}
	for ei := range m.Edges {
		e := &m.Edges[ei]
		east, _ := mesh.TangentBasis(e.Midpoint)
		vel := east.Scale(uAt(e.Lat))
		s.NormalVelocity[ei] = vel.Dot(e.Normal)
	}
	return s
}

// GalewskyConfig holds the parameters of the barotropically unstable jet of
// Galewsky, Scott & Polvani (2004), the standard eddy-spawning shallow-water
// scenario; defaults follow the published test case.
type GalewskyConfig struct {
	UMax         float64 // peak jet speed (m/s); default 80
	Lat0         float64 // southern jet boundary (rad); default pi/7
	Lat1         float64 // northern jet boundary (rad); default pi/2 - pi/7
	MeanDepth    float64 // global mean layer depth (m); default 10000
	BumpAmp      float64 // height perturbation amplitude (m); default 120
	BumpLat      float64 // perturbation center latitude (rad); default pi/4
	BumpWidthLon float64 // zonal e-folding width (rad); default 1/3
	BumpWidthLat float64 // meridional e-folding width (rad); default 1/15
}

// DefaultGalewsky returns the published parameter set.
func DefaultGalewsky() GalewskyConfig {
	return GalewskyConfig{
		UMax:         80,
		Lat0:         math.Pi / 7,
		Lat1:         math.Pi/2 - math.Pi/7,
		MeanDepth:    10000,
		BumpAmp:      120,
		BumpLat:      math.Pi / 4,
		BumpWidthLon: 1.0 / 3,
		BumpWidthLat: 1.0 / 15,
	}
}

// UnstableJet returns the Galewsky et al. initial condition: a balanced
// mid-latitude zonal jet plus a small height perturbation whose
// barotropic instability rolls the jet up into a street of eddies — the
// phenomenon the paper's visualization task tracks in MPAS-O.
func UnstableJet(md *Model, cfg GalewskyConfig) (*State, error) {
	if cfg.UMax == 0 && cfg.MeanDepth == 0 {
		cfg = DefaultGalewsky()
	}
	if cfg.MeanDepth <= 0 {
		return nil, fmt.Errorf("ocean: non-positive mean depth %g", cfg.MeanDepth)
	}
	if !(cfg.Lat0 < cfg.Lat1) {
		return nil, fmt.Errorf("ocean: jet boundaries out of order (%g >= %g)", cfg.Lat0, cfg.Lat1)
	}
	m := md.Mesh

	en := math.Exp(-4 / ((cfg.Lat1 - cfg.Lat0) * (cfg.Lat1 - cfg.Lat0)))
	uJet := func(lat float64) float64 {
		if lat <= cfg.Lat0 || lat >= cfg.Lat1 {
			return 0
		}
		return cfg.UMax / en * math.Exp(1/((lat-cfg.Lat0)*(lat-cfg.Lat1)))
	}

	// Balance: g dh/dlat = -R u (f + u tan(lat)/R). Integrate numerically
	// from the south pole with composite Simpson quadrature on a fine grid,
	// then shift so the global mean depth matches cfg.MeanDepth.
	const nq = 20000
	dlat := math.Pi / nq
	integrand := func(lat float64) float64 {
		u := uJet(lat)
		if u == 0 {
			return 0
		}
		f := 2 * md.Omega * math.Sin(lat)
		return -m.Radius * u * (f + u*math.Tan(lat)/m.Radius) / Gravity
	}
	hProfile := make([]float64, nq+1) // h at lat = -pi/2 + i*dlat, up to a constant
	for i := 1; i <= nq; i++ {
		a := -math.Pi/2 + float64(i-1)*dlat
		b := a + dlat
		mid := (a + b) / 2
		hProfile[i] = hProfile[i-1] + dlat/6*(integrand(a)+4*integrand(mid)+integrand(b))
	}
	hAtLat := func(lat float64) float64 {
		x := (lat + math.Pi/2) / dlat
		i := int(x)
		if i < 0 {
			i = 0
		}
		if i >= nq {
			i = nq - 1
		}
		frac := x - float64(i)
		return hProfile[i]*(1-frac) + hProfile[i+1]*frac
	}

	// Area-weighted mean of the unshifted profile on the actual mesh.
	var meanNum, meanDen float64
	for ci := range m.Cells {
		meanNum += hAtLat(m.Cells[ci].Lat) * m.Cells[ci].Area
		meanDen += m.Cells[ci].Area
	}
	shift := cfg.MeanDepth - meanNum/meanDen

	s := zonalFlowState(m, uJet, func(lat float64) float64 { return hAtLat(lat) + shift })

	// Height perturbation that seeds the instability.
	if cfg.BumpAmp != 0 {
		for ci := range m.Cells {
			c := &m.Cells[ci]
			lon := c.Lon // in (-pi, pi], matching Galewsky's l in (-pi, pi)
			dl := lon / cfg.BumpWidthLon
			dp := (cfg.BumpLat - c.Lat) / cfg.BumpWidthLat
			s.Thickness[ci] += cfg.BumpAmp * math.Cos(c.Lat) * math.Exp(-dl*dl) * math.Exp(-dp*dp)
		}
	}

	for ci := range m.Cells {
		if s.Thickness[ci] <= 0 {
			return nil, fmt.Errorf("ocean: initial thickness non-positive at cell %d", ci)
		}
	}
	return s, nil
}
