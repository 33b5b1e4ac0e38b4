package ocean

import (
	"fmt"

	"insituviz/internal/mesh"
)

// Diagnostics holds the derived fields computed from a state during a
// tendency evaluation. They are also what the visualization pipeline
// consumes. A Diagnostics can be reused across evaluations through
// ComputeDiagnosticsInto; every element of every field is overwritten on
// each evaluation.
type Diagnostics struct {
	Divergence    []float64   // velocity divergence at cells (1/s)
	Vorticity     []float64   // relative vorticity at dual vertices (1/s)
	KineticEnergy []float64   // kinetic energy at cells (m^2/s^2)
	CellVelocity  []mesh.Vec3 // reconstructed tangent velocity at cells (m/s)
}

// NewDiagnostics allocates a diagnostics buffer sized for the model's mesh,
// for reuse with ComputeDiagnosticsInto.
func (md *Model) NewDiagnostics() *Diagnostics {
	m := md.Mesh
	return &Diagnostics{
		Divergence:    make([]float64, m.NCells()),
		Vorticity:     make([]float64, m.NVertices()),
		KineticEnergy: make([]float64, m.NCells()),
		CellVelocity:  make([]mesh.Vec3, m.NCells()),
	}
}

// sizedFor reports whether d matches the mesh's cell and vertex counts.
func (d *Diagnostics) sizedFor(m *mesh.Mesh) bool {
	return len(d.Divergence) == m.NCells() &&
		len(d.Vorticity) == m.NVertices() &&
		len(d.KineticEnergy) == m.NCells() &&
		len(d.CellVelocity) == m.NCells()
}

// ComputeDiagnosticsInto evaluates the derived fields of s into d, which
// must be sized for the model's mesh (NewDiagnostics). Every element of d
// is overwritten; nothing is read, so a buffer can be shared across
// different states sequentially. The evaluation allocates nothing.
func (md *Model) ComputeDiagnosticsInto(s *State, d *Diagnostics) error {
	if d == nil || !d.sizedFor(md.Mesh) {
		return fmt.Errorf("ocean: diagnostics buffer not sized for mesh (%d cells, %d vertices)",
			md.Mesh.NCells(), md.Mesh.NVertices())
	}
	md.computeDiagnosticsInto(s, d)
	return nil
}

func (md *Model) computeDiagnosticsInto(s *State, d *Diagnostics) {
	md.instr.diagEvals.Inc()
	md.sc.loopS, md.sc.loopD = s, d
	// The cell and vertex loops are independent (both read only s), so
	// they fuse into one fan-out sharing a single barrier.
	md.parallelPair(md.Mesh.NCells(), md.grainDiagCells, md.sc.diagCells,
		md.Mesh.NVertices(), md.grainDiagVerts, md.sc.diagVerts)
}

// Tendency evaluates the right-hand side of the shallow-water equations at
// state s, writing the result into out (which must be sized for the mesh).
//
// Continuity:  dh/dt = -div(h u)
// Momentum:    du/dt = q u_perp - grad_n(K + g h) + nu del2(u)
//
// where q = f + zeta is the absolute vorticity interpolated to edges and
// u_perp is the tangential velocity from the cell-centered reconstruction.
// The intermediate diagnostics live in the model's reusable scratch buffer,
// so a steady-state Tendency evaluation allocates nothing.
func (md *Model) Tendency(s *State, out *State) error {
	m := md.Mesh
	if len(out.Thickness) != m.NCells() || len(out.NormalVelocity) != m.NEdges() {
		return fmt.Errorf("ocean: tendency output sized %d/%d, want %d/%d",
			len(out.Thickness), len(out.NormalVelocity), m.NCells(), m.NEdges())
	}
	d := md.ensureDiag()
	md.computeDiagnosticsInto(s, d)

	md.sc.loopS, md.sc.loopOut, md.sc.loopD = s, out, d
	// Continuity writes out.Thickness, momentum writes out.NormalVelocity;
	// both read only s and the already-complete diagnostics, so the pair
	// fuses under one barrier.
	md.parallelPair(m.NCells(), md.grainContinuity, md.sc.continuity,
		m.NEdges(), md.grainMomentum, md.sc.momentum)
	return nil
}

// Step advances s by one RK4 step of size dt seconds, in place. The four
// stage states and the intermediate state are preallocated scratch owned by
// the model, so steady-state stepping is allocation-free.
func (md *Model) Step(s *State, dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("ocean: non-positive timestep %g", dt)
	}
	md.instr.steps.Inc()
	tm := md.instr.stepTime.Start()
	defer tm.End()
	md.ensureStages()
	k1, k2, k3, k4 := md.sc.stages[0], md.sc.stages[1], md.sc.stages[2], md.sc.stages[3]
	tmp := md.sc.tmp

	if err := md.Tendency(s, k1); err != nil {
		return err
	}
	if err := tmp.CopyFrom(s); err != nil {
		return err
	}
	if err := tmp.AddScaled(k1, dt/2); err != nil {
		return err
	}
	if err := md.Tendency(tmp, k2); err != nil {
		return err
	}
	if err := tmp.CopyFrom(s); err != nil {
		return err
	}
	if err := tmp.AddScaled(k2, dt/2); err != nil {
		return err
	}
	if err := md.Tendency(tmp, k3); err != nil {
		return err
	}
	if err := tmp.CopyFrom(s); err != nil {
		return err
	}
	if err := tmp.AddScaled(k3, dt); err != nil {
		return err
	}
	if err := md.Tendency(tmp, k4); err != nil {
		return err
	}

	if err := s.AddScaled(k1, dt/6); err != nil {
		return err
	}
	if err := s.AddScaled(k2, dt/3); err != nil {
		return err
	}
	if err := s.AddScaled(k3, dt/3); err != nil {
		return err
	}
	return s.AddScaled(k4, dt/6)
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

// CellVorticityFrom interpolates the relative vorticity of already computed
// diagnostics from the dual vertices to cell centers (area-weighted over
// each cell's corners), writing into out when it is correctly sized (a fresh
// slice is allocated otherwise, so a nil out always works). The eddy
// classifier uses it to separate cyclonic from anticyclonic cores.
func (md *Model) CellVorticityFrom(d *Diagnostics, out []float64) []float64 {
	m := md.Mesh
	if len(out) != m.NCells() {
		out = make([]float64, m.NCells())
	}
	for ci := range m.Cells {
		c := &m.Cells[ci]
		var num, den float64
		for _, vi := range c.Vertices {
			a := m.Vertices[vi].Area
			num += d.Vorticity[vi] * a
			den += a
		}
		if den > 0 {
			out[ci] = num / den
		} else {
			out[ci] = 0
		}
	}
	return out
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
