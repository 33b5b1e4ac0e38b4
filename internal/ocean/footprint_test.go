package ocean

import (
	"runtime"
	"testing"

	"insituviz/internal/mesh"
	"insituviz/internal/workpool"
)

// modelFootprintCeiling bounds the bytes NewModel, the first Step and one
// OkuboWeissInto allocate at 10 242 cells (subdivision 5). Measured on
// amd64: 6 763 608 bytes with the struct-reading solver and its five RK4
// states, 7 181 336 with the slot-major coefficients, the cell records and
// three RK4 states. A second copy of the cell topology (Edges and
// Neighbors, ~61 000 slots each) would add at least 0.49 MB even as int32
// and crosses the ceiling.
const modelFootprintCeiling = 7_400_000

// TestModelFootprint guards the solver's memory: everything a model
// allocates to take its first step and first Okubo-Weiss evaluation, with
// the worker pool already started and calibrated so its own start-up is
// not counted.
func TestModelFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	m, err := mesh.NewIcosphere(5, mesh.EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(m.NCells(), m.NEdges())
	for i := range s.Thickness {
		s.Thickness[i] = 1000
	}
	ow := make([]float64, m.NCells())
	workpool.OverheadNs()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	md, err := NewModel(m, Config{Viscosity: 1e5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := md.Step(s, md.SuggestedTimestep(1000)); err != nil {
		t.Fatal(err)
	}
	if err := md.OkuboWeissInto(s, ow); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > modelFootprintCeiling {
		t.Errorf("NewModel + Step + OkuboWeissInto allocated %d bytes at %d cells, ceiling %d",
			got, m.NCells(), modelFootprintCeiling)
	}
}
