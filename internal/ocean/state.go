// Package ocean implements the simulation substrate of the study: a
// nonlinear shallow-water ocean model in the style of MPAS-Ocean, running on
// the unstructured spherical Voronoi meshes of the mesh package. The model
// uses a C-grid staggering (layer thickness at cell centers, normal velocity
// at edges) and a vector-invariant momentum equation, and provides the
// Okubo-Weiss diagnostic the paper's visualization task is built on.
//
// The paper runs MPAS-O at 60 km resolution for six simulated months with a
// 30-minute timestep; this package reproduces that class of computation at
// configurable resolution so the coupled pipelines operate on genuine,
// eddy-bearing fields.
package ocean

import (
	"fmt"
	"math"

	"insituviz/internal/mesh"
)

// State holds the prognostic variables of the shallow-water system.
type State struct {
	// Thickness is the fluid layer thickness at each cell (m).
	Thickness []float64
	// NormalVelocity is the velocity component along each edge's normal (m/s).
	NormalVelocity []float64
}

// NewState allocates a zero state for a mesh with nCells cells and nEdges
// edges.
func NewState(nCells, nEdges int) *State {
	return &State{
		Thickness:      make([]float64, nCells),
		NormalVelocity: make([]float64, nEdges),
	}
}

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	out := &State{
		Thickness:      append([]float64(nil), s.Thickness...),
		NormalVelocity: append([]float64(nil), s.NormalVelocity...),
	}
	return out
}

// CopyFrom overwrites s with the contents of src without allocating. It
// returns an error on mismatched sizes.
func (s *State) CopyFrom(src *State) error {
	if len(s.Thickness) != len(src.Thickness) || len(s.NormalVelocity) != len(src.NormalVelocity) {
		return fmt.Errorf("ocean: state size mismatch (%d/%d cells, %d/%d edges)",
			len(s.Thickness), len(src.Thickness), len(s.NormalVelocity), len(src.NormalVelocity))
	}
	copy(s.Thickness, src.Thickness)
	copy(s.NormalVelocity, src.NormalVelocity)
	return nil
}

// sizedFor reports whether s has one thickness per cell and one normal
// velocity per edge of m.
func (s *State) sizedFor(m *mesh.Mesh) bool {
	return s != nil && len(s.Thickness) == m.NCells() && len(s.NormalVelocity) == m.NEdges()
}

// CheckFinite returns an error naming the first non-finite value found, or
// nil when the state is entirely finite. The pipeline calls this after every
// step so that an unstable configuration fails loudly instead of producing
// garbage images.
func (s *State) CheckFinite() error {
	for i, v := range s.Thickness {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ocean: non-finite thickness %g at cell %d", v, i)
		}
	}
	for i, v := range s.NormalVelocity {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ocean: non-finite velocity %g at edge %d", v, i)
		}
	}
	return nil
}

// MaxAbsVelocity returns the largest |u| over all edges, used for CFL
// monitoring.
func (s *State) MaxAbsVelocity() float64 {
	var mx float64
	for _, v := range s.NormalVelocity {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
