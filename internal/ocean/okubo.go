package ocean

import (
	"fmt"

	"insituviz/internal/stats"
)

// OkuboWeiss computes the Okubo-Weiss parameter at every cell:
//
//	W = s_n^2 + s_s^2 - omega^2
//
// where s_n is the normal strain, s_s the shear strain, and omega the
// relative vorticity of the reconstructed cell velocity field. Negative
// values indicate rotation-dominated flow (eddy cores, rendered green in
// the paper's Fig. 2); positive values indicate strain-dominated shear
// regions (rendered blue).
//
// The returned slice is freshly allocated; hot loops should use
// OkuboWeissInto with a reused buffer instead.
func (md *Model) OkuboWeiss(s *State) []float64 {
	out := make([]float64, md.Mesh.NCells())
	md.okuboWeiss(s, out)
	return out
}

// OkuboWeissInto computes the Okubo-Weiss field of s into out, reusing the
// model's diagnostics and projection scratch: a steady-state evaluation
// allocates nothing.
func (md *Model) OkuboWeissInto(s *State, out []float64) error {
	if err := md.checkState("okubo-weiss input", s); err != nil {
		return err
	}
	if len(out) != md.Mesh.NCells() {
		return fmt.Errorf("ocean: okubo-weiss output has %d cells, want %d", len(out), md.Mesh.NCells())
	}
	md.okuboWeiss(s, out)
	return nil
}

// okuboWeiss computes the Okubo-Weiss field of s into out from the
// reconstructed cell velocities alone, which is all it reads of the
// diagnostics: no divergence, kinetic energy or vertex vorticity.
func (md *Model) okuboWeiss(s *State, out []float64) {
	d := md.ensureDiag(true)
	md.sc.loopS, md.sc.loopD = s, d
	md.parallelFor(md.Mesh.NCells(), md.grainDiagCells, md.sc.owVelocity)
	md.okuboWeissFromDiagnostics(d, out)
}

// OkuboWeissFrom computes the Okubo-Weiss field from already computed
// diagnostics, letting callers share one diagnostics evaluation across
// Okubo-Weiss and the other derived fields. out is used when correctly
// sized (a fresh slice is allocated otherwise, so a nil out always works).
func (md *Model) OkuboWeissFrom(d *Diagnostics, out []float64) []float64 {
	if len(out) != md.Mesh.NCells() {
		out = make([]float64, md.Mesh.NCells())
	}
	md.okuboWeissFromDiagnostics(d, out)
	return out
}

func (md *Model) okuboWeissFromDiagnostics(d *Diagnostics, out []float64) {
	m := md.Mesh
	md.instr.okubo.Inc()
	md.ensureOkubo()

	// Phase 1: local (east, north) components of the reconstructed
	// velocities, evaluated once per cell in each cell's own basis.
	// Phase 2 reads neighbor projections, so the phases cannot fuse.
	md.sc.loopD, md.sc.loopOW = d, out
	md.parallelFor(m.NCells(), md.grainOWProject, md.sc.owProject)
	md.parallelFor(m.NCells(), md.grainOWGradient, md.sc.owGradient)
}

// OkuboWeissThreshold returns the conventional eddy-detection threshold
// -0.2 * stddev(W) for the given Okubo-Weiss field (Woodring et al.): cells
// with W below the threshold are rotation-dominated eddy candidates.
func OkuboWeissThreshold(w []float64) float64 {
	sd, err := stats.StdDev(w)
	if err != nil {
		return 0
	}
	return -0.2 * sd
}
