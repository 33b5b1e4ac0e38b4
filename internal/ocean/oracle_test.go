package ocean

import (
	"fmt"
	"math"

	"insituviz/internal/mesh"
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
		lat, _ := v.Pos.LatLon()
		out[vi] = (d.Vorticity[vi] + 2*EarthOmega*math.Sin(lat)) / h
	}
	return out
}

// The struct-reading reference kernels: the cell, vertex and momentum
// loops as they read mesh.Edge before the solver moved to slot-major
// coefficients and cell records, the Okubo-Weiss gradient over per-cell
// weight slices, and the five-state RK4 step. The differential test holds
// the solver to them bit for bit. They share only the least-squares
// coefficients with the model, cut into per-cell views by their own prefix
// sums.

// refOperators returns per-cell views of the model's reconstruction and
// gradient coefficients.
func refOperators(md *Model) (recon [][]mesh.Vec3, grads [][][2]float64) {
	m := md.Mesh
	recon = make([][]mesh.Vec3, m.NCells())
	grads = make([][][2]float64, m.NCells())
	var o int
	for ci := range m.Cells {
		n := len(m.Cells[ci].Edges)
		recon[ci] = md.recon[o : o+n]
		o += n
	}
	o = 0
	for ci := range m.Cells {
		n := len(m.Cells[ci].Neighbors)
		grads[ci] = md.gradWeights[o : o+n]
		o += n
	}
	return recon, grads
}

// refCellPass evaluates divergence, kinetic energy and reconstructed
// velocity into d and, when out is non-nil, the continuity tendency.
func refCellPass(md *Model, s *State, d *Diagnostics, out *State) {
	m := md.Mesh
	recon, _ := refOperators(md)
	h, un := s.Thickness, s.NormalVelocity
	for ci := range m.Cells {
		c := &m.Cells[ci]
		var div, ke, flux, vx, vy, vz float64
		for k, ei := range c.Edges {
			e := &m.Edges[ei]
			u := un[ei]
			su := float64(c.EdgeSigns[k]) * u
			div += su * e.Dv
			ke += e.Dc * e.Dv * 0.25 * u * u
			rk := &recon[ci][k]
			vx += u * rk[0]
			vy += u * rk[1]
			vz += u * rk[2]
			he := 0.5 * (h[e.Cells[0]] + h[e.Cells[1]])
			flux += su * he * e.Dv
		}
		d.Divergence[ci] = div / c.Area
		d.KineticEnergy[ci] = ke / c.Area
		d.CellVelocity[ci] = mesh.Vec3{vx, vy, vz}
		if out != nil {
			out.Thickness[ci] = -flux / c.Area
		}
	}
}

// refVertexPass evaluates the relative vorticity at dual vertices into d.
func refVertexPass(md *Model, s *State, d *Diagnostics) {
	m := md.Mesh
	for vi := range m.Vertices {
		v := &m.Vertices[vi]
		var circ float64
		for k, ei := range v.Edges {
			circ += float64(v.EdgeSigns[k]) * s.NormalVelocity[ei] * m.Edges[ei].Dc
		}
		d.Vorticity[vi] = circ / v.Area
	}
}

// refMomentum evaluates the momentum tendency from the diagnostics d of s.
func refMomentum(md *Model, s *State, d *Diagnostics, out *State) {
	m := md.Mesh
	h := s.Thickness
	for ei := range m.Edges {
		e := &m.Edges[ei]
		c0, c1 := e.Cells[0], e.Cells[1]
		v0, v1 := e.Vertices[0], e.Vertices[1]
		q := md.coriolisEdge[ei] + 0.5*(d.Vorticity[v0]+d.Vorticity[v1])
		a, b, t := &d.CellVelocity[c0], &d.CellVelocity[c1], &e.Tangent
		uperp := 0.5*(a[0]+b[0])*t[0] + 0.5*(a[1]+b[1])*t[1] + 0.5*(a[2]+b[2])*t[2]
		bern0 := d.KineticEnergy[c0] + Gravity*h[c0]
		bern1 := d.KineticEnergy[c1] + Gravity*h[c1]
		tend := q*uperp - (bern1-bern0)/e.Dc
		if md.Viscosity > 0 {
			lap := (d.Divergence[c1]-d.Divergence[c0])/e.Dc -
				md.vertexTangentSign[ei]*(d.Vorticity[v1]-d.Vorticity[v0])/e.Dv
			tend += md.Viscosity * lap
		}
		out.NormalVelocity[ei] = tend
	}
}

// refTendency evaluates the shallow-water tendency of s into out.
func refTendency(md *Model, s, out *State) {
	d := md.NewDiagnostics()
	refCellPass(md, s, d, out)
	refVertexPass(md, s, d)
	refMomentum(md, s, d, out)
}

// refOkuboWeiss evaluates the Okubo-Weiss field from the diagnostics d.
func refOkuboWeiss(md *Model, d *Diagnostics) []float64 {
	m := md.Mesh
	_, grads := refOperators(md)
	w := make([]float64, m.NCells())
	for ci := range m.Cells {
		c := &m.Cells[ci]
		east, north := mesh.TangentBasis(c.Center)
		v := &d.CellVelocity[ci]
		u0 := v[0]*east[0] + v[1]*east[1] + v[2]*east[2]
		v0 := v[0]*north[0] + v[1]*north[1] + v[2]*north[2]
		var ux, uy, vx, vy float64
		for k, nb := range c.Neighbors {
			v := &d.CellVelocity[nb]
			du := v[0]*east[0] + v[1]*east[1] + v[2]*east[2] - u0
			dv := v[0]*north[0] + v[1]*north[1] + v[2]*north[2] - v0
			gw := &grads[ci][k]
			ux += gw[0] * du
			uy += gw[1] * du
			vx += gw[0] * dv
			vy += gw[1] * dv
		}
		sn, ss, om := ux-vy, vx+uy, vx-uy
		w[ci] = sn*sn + ss*ss - om*om
	}
	return w
}

// refStep advances s by one RK4 step with four slope states and an
// intermediate state, adding the weighted slopes to s after the last
// stage.
func refStep(md *Model, s *State, dt float64) {
	m := md.Mesh
	var k [4]*State
	tmp := NewState(m.NCells(), m.NEdges())
	stage := func(w float64, k *State) {
		for i := range tmp.Thickness {
			tmp.Thickness[i] = s.Thickness[i] + w*k.Thickness[i]
		}
		for i := range tmp.NormalVelocity {
			tmp.NormalVelocity[i] = s.NormalVelocity[i] + w*k.NormalVelocity[i]
		}
	}
	for i := range k {
		k[i] = NewState(m.NCells(), m.NEdges())
	}
	refTendency(md, s, k[0])
	stage(dt/2, k[0])
	refTendency(md, tmp, k[1])
	stage(dt/2, k[1])
	refTendency(md, tmp, k[2])
	stage(dt, k[2])
	refTendency(md, tmp, k[3])
	a, b := dt/6, dt/3
	finish := func(x, k1, k2, k3, k4 []float64) {
		for i := range x {
			v := x[i]
			v += a * k1[i]
			v += b * k2[i]
			v += b * k3[i]
			v += a * k4[i]
			x[i] = v
		}
	}
	finish(s.Thickness, k[0].Thickness, k[1].Thickness, k[2].Thickness, k[3].Thickness)
	finish(s.NormalVelocity, k[0].NormalVelocity, k[1].NormalVelocity, k[2].NormalVelocity, k[3].NormalVelocity)
}

// RossbyHaurwitzWave returns the Williamson et al. test case 6 initial
// condition: a wavenumber-R Rossby-Haurwitz wave, a nearly steadily
// rotating global pattern and the standard stress test for shallow-water
// dynamical cores. Parameters follow the published case: angular
// velocities omega = kAmp = 7.848e-6 1/s, R = 4, h0 = 8000 m.
func RossbyHaurwitzWave(md *Model) (*State, error) {
	const (
		omega = 7.848e-6
		kAmp  = 7.848e-6
		waveR = 4.0
		h0    = 8000.0
	)
	m := md.Mesh
	a := m.Radius
	bigOmega := md.Omega

	uVel := func(lat, lon float64) (ue, un float64) {
		cl, sl := math.Cos(lat), math.Sin(lat)
		ue = a*omega*cl + a*kAmp*math.Pow(cl, waveR-1)*(waveR*sl*sl-cl*cl)*math.Cos(waveR*lon)
		un = -a * kAmp * waveR * math.Pow(cl, waveR-1) * sl * math.Sin(waveR*lon)
		return ue, un
	}
	hField := func(lat, lon float64) float64 {
		cl := math.Cos(lat)
		c2 := cl * cl
		cR2 := math.Pow(cl, 2*waveR)
		aa := omega*(2*bigOmega+omega)/2*c2 +
			kAmp*kAmp/4*cR2*((waveR+1)*c2+(2*waveR*waveR-waveR-2)-2*waveR*waveR/c2)
		bb := 2 * (bigOmega + omega) * kAmp / ((waveR + 1) * (waveR + 2)) *
			math.Pow(cl, waveR) * ((waveR*waveR + 2*waveR + 2) - (waveR+1)*(waveR+1)*c2)
		cc := kAmp * kAmp / 4 * cR2 * ((waveR+1)*c2 - (waveR + 2))
		return h0 + a*a/Gravity*(aa+bb*math.Cos(waveR*lon)+cc*math.Cos(2*waveR*lon))
	}

	s := NewState(m.NCells(), m.NEdges())
	for ci := range m.Cells {
		c := &m.Cells[ci]
		s.Thickness[ci] = hField(c.Lat, c.Lon)
		if s.Thickness[ci] <= 0 {
			return nil, fmt.Errorf("ocean: Rossby-Haurwitz thickness non-positive at cell %d", ci)
		}
	}
	for ei := range m.Edges {
		e := &m.Edges[ei]
		east, north := mesh.TangentBasis(e.Midpoint)
		ue, un := uVel(e.Lat, e.Lon)
		vel := east.Scale(ue).Add(north.Scale(un))
		s.NormalVelocity[ei] = vel.Dot(e.Normal)
	}
	return s, nil
}
