package ocean

import (
	"fmt"
	"math"
)

// Analytic initial states and integral invariants the solver tests check
// against; no production caller needs them.

// SteadyZonalFlow returns the geostrophically balanced solid-body rotation
// state of Williamson et al. test case 2: a steady, exact solution of the
// shallow-water equations. u0 is the peak zonal wind (m/s, 2*pi*R/12days
// in the standard test) and h0 the polar fluid depth (m).
//
// u(lat)   = u0 cos(lat)
// g h(lat) = g h0 - (R*Omega*u0 + u0^2/2) sin^2(lat)
func SteadyZonalFlow(md *Model, u0, h0 float64) (*State, error) {
	if h0 <= 0 {
		return nil, fmt.Errorf("ocean: non-positive depth %g", h0)
	}
	m := md.Mesh
	coef := (m.Radius*md.Omega*u0 + u0*u0/2) / Gravity
	if h0-coef <= 0 {
		return nil, fmt.Errorf("ocean: flow too strong, layer outcrops (h0=%g, drawdown=%g)", h0, coef)
	}
	s := zonalFlowState(m,
		func(lat float64) float64 { return u0 * math.Cos(lat) },
		func(lat float64) float64 { return h0 - coef*math.Sin(lat)*math.Sin(lat) },
	)
	return s, nil
}

// RestState returns a motionless state of uniform depth h0.
func RestState(md *Model, h0 float64) (*State, error) {
	if h0 <= 0 {
		return nil, fmt.Errorf("ocean: non-positive depth %g", h0)
	}
	m := md.Mesh
	s := NewState(m.NCells(), m.NEdges())
	for ci := range s.Thickness {
		s.Thickness[ci] = h0
	}
	return s, nil
}

// Tendency evaluates the right-hand side of the shallow-water equations at
// state s (see tendency), writing the result into out, which must be sized
// for the mesh. The intermediate diagnostics live in the model's reusable
// scratch buffer, so a steady-state Tendency evaluation allocates nothing.
func (md *Model) Tendency(s *State, out *State) error {
	if err := md.checkState("tendency input", s); err != nil {
		return err
	}
	if err := md.checkState("tendency output", out); err != nil {
		return err
	}
	md.tendency(s, out)
	return nil
}

// TotalMass returns the area-integrated thickness (m^3), conserved exactly
// by the discrete continuity equation.
func (md *Model) TotalMass(s *State) float64 {
	var mass float64
	for ci := range md.Mesh.Cells {
		mass += s.Thickness[ci] * md.Mesh.Cells[ci].Area
	}
	return mass
}

// TotalEnergyFrom returns the area-integrated total (kinetic + potential)
// energy per unit density (m^5/s^2), evaluated from already computed
// diagnostics of s.
func (md *Model) TotalEnergyFrom(s *State, d *Diagnostics) float64 {
	var en float64
	for ci := range md.Mesh.Cells {
		h := s.Thickness[ci]
		en += (h*d.KineticEnergy[ci] + 0.5*Gravity*h*h) * md.Mesh.Cells[ci].Area
	}
	return en
}

// PotentialVorticityFrom returns the shallow-water potential vorticity
// q = (zeta + f) / h at the dual vertices from already computed diagnostics
// of s, with the layer thickness interpolated from the vertex's three cells;
// out is used when it is correctly sized (a fresh slice is allocated
// otherwise, so a nil out always works). PV is materially conserved by the
// continuous equations and is MPAS-O's standard dynamical diagnostic
// alongside Okubo-Weiss.
func (md *Model) PotentialVorticityFrom(s *State, d *Diagnostics, out []float64) []float64 {
	m := md.Mesh
	if len(out) != m.NVertices() {
		out = make([]float64, m.NVertices())
	}
	for vi := range m.Vertices {
		v := &m.Vertices[vi]
		h := (s.Thickness[v.Cells[0]] + s.Thickness[v.Cells[1]] + s.Thickness[v.Cells[2]]) / 3
		if h <= 0 {
			out[vi] = 0
			continue
		}
		out[vi] = (d.Vorticity[vi] + md.coriolisVertex[vi]) / h
	}
	return out
}
