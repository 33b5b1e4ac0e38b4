package ocean

import (
	"fmt"
	"time"

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
	if err := md.checkState("diagnostics input", s); err != nil {
		return err
	}
	if d == nil || !d.sizedFor(md.Mesh) {
		return fmt.Errorf("ocean: diagnostics buffer not sized for mesh (%d cells, %d vertices)",
			md.Mesh.NCells(), md.Mesh.NVertices())
	}
	md.cellPass(s, d, nil)
	return nil
}

// cellPass evaluates the diagnostics of s into d or, when out is non-nil,
// the continuity tendency into out.Thickness, which walks the same cell
// edges, with the cell records momentum reads in place of d's cell fields
// (only d's vorticity is written then). The cell and vertex loops are
// independent (both read only s), so they fuse into one fan-out sharing a
// single barrier.
func (md *Model) cellPass(s *State, d *Diagnostics, out *State) {
	md.instr.diagEvals.Inc()
	md.sc.loopS, md.sc.loopD, md.sc.loopOut = s, d, out
	md.parallelPair(md.Mesh.NCells(), md.grainDiagCells, md.sc.diagCells,
		md.Mesh.NVertices(), md.grainDiagVerts, md.sc.diagVerts)
}

// checkState returns an error unless s is sized for the model's mesh.
func (md *Model) checkState(what string, s *State) error {
	if !s.sizedFor(md.Mesh) {
		var nc, ne int
		if s != nil {
			nc, ne = len(s.Thickness), len(s.NormalVelocity)
		}
		return fmt.Errorf("ocean: %s state sized %d/%d, want %d/%d",
			what, nc, ne, md.Mesh.NCells(), md.Mesh.NEdges())
	}
	return nil
}

// tendency evaluates the right-hand side of the shallow-water equations at
// s into out:
//
// Continuity:  dh/dt = -div(h u)
// Momentum:    du/dt = q u_perp - grad_n(K + g h) + nu del2(u)
//
// where q = f + zeta is the absolute vorticity interpolated to edges and
// u_perp is the tangential velocity from the cell-centered reconstruction.
// It runs in two phases: the cell pass (cell records plus continuity)
// beside the vertex pass, then momentum, which reads the completed records
// of neighbouring cells and vorticities of neighbouring vertices.
func (md *Model) tendency(s *State, out *State) {
	d := md.ensureDiag(false)
	if md.sc.rec == nil {
		md.sc.rec = make([]cellRecord, md.Mesh.NCells())
	}
	md.cellPass(s, d, out)
	md.parallelFor(md.Mesh.NEdges(), md.grainMomentum, md.sc.momentum)
}

// Step advances s by one RK4 step of size dt seconds, in place. The slope,
// intermediate and running-sum states are preallocated scratch owned by
// the model, so steady-state stepping is allocation-free.
//
// The sum accumulates s + dt/6 k1 + dt/3 k2 + dt/3 k3 one slope per stage,
// and the closing pass adds dt/6 k4: the same chain of additions, in the
// same order, as adding the four weighted slopes to s after the last
// stage, so a single slope state suffices.
func (md *Model) Step(s *State, dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("ocean: non-positive timestep %g", dt)
	}
	if err := md.checkState("step", s); err != nil {
		return err
	}
	md.instr.steps.Inc()
	var start time.Time
	if md.instr.stepTime != nil {
		start = time.Now()
	}
	md.ensureStages()
	k, tmp, sum := md.sc.k, md.sc.tmp, md.sc.sum
	a, b := dt/6, dt/3

	md.tendency(s, k)
	md.stage(s, s, dt/2, a)
	md.tendency(tmp, k)
	md.stage(s, sum, dt/2, b)
	md.tendency(tmp, k)
	md.stage(s, sum, dt, b)
	md.tendency(tmp, k)

	md.sc.loopS, md.sc.loopA = s, a
	md.update(md.sc.finishCells, md.sc.finishEdges)
	if md.instr.stepTime != nil {
		md.instr.stepTime.Observe(float64(time.Since(start)))
	}
	return nil
}

// stage writes the RK4 intermediate state tmp = s + w*k and the running
// sum = acc + a*k.
func (md *Model) stage(s, acc *State, w, a float64) {
	md.sc.loopS, md.sc.loopSum, md.sc.loopW, md.sc.loopA = s, acc, w, a
	md.update(md.sc.stageCells, md.sc.stageEdges)
}

// update runs an element-wise state pass over cells and edges as one
// fan-out.
func (md *Model) update(cells, edges func(lo, hi int)) {
	md.parallelPair(md.Mesh.NCells(), md.grainUpdate, cells,
		md.Mesh.NEdges(), md.grainUpdate, edges)
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
