package ocean

import (
	"math"
	"math/rand"
	"testing"

	"insituviz/internal/mesh"
)

// randomState returns a seeded state of plausible magnitudes whose normal
// velocities include signed zeros, the values on which a rewritten product
// could first show a different bit.
func randomState(m *mesh.Mesh, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	s := NewState(m.NCells(), m.NEdges())
	for i := range s.Thickness {
		s.Thickness[i] = 1000 + 100*rng.Float64()
	}
	for i := range s.NormalVelocity {
		switch i % 13 {
		case 0:
			s.NormalVelocity[i] = math.Copysign(0, -1)
		case 7:
			s.NormalVelocity[i] = 0
		default:
			s.NormalVelocity[i] = 20 * rng.NormFloat64()
		}
	}
	return s
}

// sameBits fails the test at the first element whose bits differ.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s differs at %d: %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func vecComponents(vs []mesh.Vec3) []float64 {
	out := make([]float64, 0, 3*len(vs))
	for _, v := range vs {
		out = append(out, v[:]...)
	}
	return out
}

// TestKernelsMatchStructReadingReference holds the slot-major cell pass,
// the vertex coefficients, the cell records and the three-state RK4 to the
// struct-reading reference kernels of oracle_test.go, bit for bit, on
// seeded random states, with and without viscosity, serial and on the
// pool.
func TestKernelsMatchStructReadingReference(t *testing.T) {
	for _, subdiv := range []int{2, 4} {
		m, err := mesh.NewIcosphere(subdiv, mesh.EarthRadius)
		if err != nil {
			t.Fatal(err)
		}
		for _, visc := range []float64{0, 1e5} {
			for _, workers := range []int{-1, 2, 3} {
				md, err := NewModel(m, Config{Viscosity: visc, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				seed := int64(100*subdiv + workers)
				s := randomState(m, seed)

				got, want := NewState(m.NCells(), m.NEdges()), NewState(m.NCells(), m.NEdges())
				if err := md.Tendency(s, got); err != nil {
					t.Fatal(err)
				}
				refTendency(md, s, want)
				sameBits(t, "tendency thickness", got.Thickness, want.Thickness)
				sameBits(t, "tendency velocity", got.NormalVelocity, want.NormalVelocity)

				d, rd := md.NewDiagnostics(), md.NewDiagnostics()
				if err := md.ComputeDiagnosticsInto(s, d); err != nil {
					t.Fatal(err)
				}
				refCellPass(md, s, rd, nil)
				refVertexPass(md, s, rd)
				sameBits(t, "divergence", d.Divergence, rd.Divergence)
				sameBits(t, "kinetic energy", d.KineticEnergy, rd.KineticEnergy)
				sameBits(t, "vorticity", d.Vorticity, rd.Vorticity)
				sameBits(t, "cell velocity", vecComponents(d.CellVelocity), vecComponents(rd.CellVelocity))

				ow := make([]float64, m.NCells())
				if err := md.OkuboWeissInto(s, ow); err != nil {
					t.Fatal(err)
				}
				sameBits(t, "okubo-weiss", ow, refOkuboWeiss(md, rd))

				// Small slopes keep the random state finite over the steps.
				dt := md.SuggestedTimestep(1000) / 10
				rs := s.Clone()
				for i := 0; i < 2; i++ {
					if err := md.Step(s, dt); err != nil {
						t.Fatal(err)
					}
					refStep(md, rs, dt)
				}
				sameBits(t, "stepped thickness", s.Thickness, rs.Thickness)
				sameBits(t, "stepped velocity", s.NormalVelocity, rs.NormalVelocity)
			}
		}
	}
}
