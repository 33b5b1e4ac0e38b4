package ocean

import (
	"testing"

	"insituviz/internal/telemetry"
)

// allocReadyModel returns a warmed-up model/state pair: one Step has run so
// every lazily allocated scratch buffer (RK stages, diagnostics, Okubo-Weiss
// scratch, bound loop closures) exists before allocations are measured.
func allocReadyModel(t *testing.T, workers int) (*Model, *State, float64) {
	t.Helper()
	md := testModel(t, 4, Config{Viscosity: 1e5, Workers: workers})
	s, err := UnstableJet(md, DefaultGalewsky())
	if err != nil {
		t.Fatal(err)
	}
	dt := md.SuggestedTimestep(10000)
	if err := md.Step(s, dt); err != nil {
		t.Fatal(err)
	}
	md.OkuboWeiss(s)
	return md, s, dt
}

func TestStepSteadyStateAllocsSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// The whole point of the scratch-state refactor: once warmed up, a
	// serial-mode Step allocates nothing at all.
	md, s, dt := allocReadyModel(t, -1)
	allocs := testing.AllocsPerRun(20, func() {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial Step allocates %.1f objects per run, want 0", allocs)
	}
}

func TestStepSteadyStateAllocsParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// Parallel-mode Step dispatches through the persistent worker pool.
	// Steady state is also allocation-free: tasks are sent by value and
	// completion counters come from a sync.Pool. A budget of 2 tolerates the
	// GC clearing that sync.Pool between runs.
	md, s, dt := allocReadyModel(t, 4)
	allocs := testing.AllocsPerRun(20, func() {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("parallel Step allocates %.1f objects per run, want <= 2", allocs)
	}
}

func TestDiagnosticsPathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// The shared-diagnostics sampling path used by the live pipeline:
	// one diagnostics evaluation feeding Okubo-Weiss and cell vorticity,
	// all into caller-owned buffers.
	md, s, _ := allocReadyModel(t, -1)
	d := md.NewDiagnostics()
	ow := make([]float64, md.Mesh.NCells())
	cv := make([]float64, md.Mesh.NCells())
	allocs := testing.AllocsPerRun(20, func() {
		if err := md.ComputeDiagnosticsInto(s, d); err != nil {
			t.Fatal(err)
		}
		md.OkuboWeissFrom(d, ow)
		md.CellVorticityFrom(d, cv)
	})
	if allocs != 0 {
		t.Errorf("diagnostics sampling path allocates %.1f objects per run, want 0", allocs)
	}
}

func TestSharedDiagnosticVariantsMatchAllocating(t *testing.T) {
	// OkuboWeissFrom reuses one diagnostics evaluation and OkuboWeissInto a
	// caller's buffer; each must reproduce the allocating OkuboWeiss bitwise.
	md, s, _ := allocReadyModel(t, -1)
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	n := md.Mesh.NCells()

	ow := md.OkuboWeissFrom(d, make([]float64, n))
	for i, want := range md.OkuboWeiss(s) {
		if ow[i] != want {
			t.Fatalf("OkuboWeissFrom differs at cell %d: %v vs %v", i, ow[i], want)
		}
	}

	var into []float64 = make([]float64, n)
	if err := md.OkuboWeissInto(s, into); err != nil {
		t.Fatal(err)
	}
	for i := range ow {
		if into[i] != ow[i] {
			t.Fatalf("OkuboWeissInto differs at cell %d", i)
		}
	}
}

func TestOkuboWeissIntoRejectsWrongSize(t *testing.T) {
	md, s, _ := allocReadyModel(t, -1)
	if err := md.OkuboWeissInto(s, make([]float64, 3)); err == nil {
		t.Error("expected size-mismatch error")
	}
}

// TestStepSteadyStateAllocsWithTelemetry proves the PR 2 contract: the
// 0 allocs/op Step budget survives with a telemetry registry attached —
// the counters are atomic adds and the step span's timer is a value type,
// whether or not the entry is sampled.
func TestStepSteadyStateAllocsWithTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	reg := telemetry.NewRegistry()
	md := testModel(t, 4, Config{Viscosity: 1e5, Workers: -1, Telemetry: reg})
	s, err := UnstableJet(md, DefaultGalewsky())
	if err != nil {
		t.Fatal(err)
	}
	dt := md.SuggestedTimestep(10000)
	if err := md.Step(s, dt); err != nil {
		t.Fatal(err)
	}
	md.OkuboWeiss(s)
	allocs := testing.AllocsPerRun(20, func() {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented Step allocates %.1f objects per run, want 0", allocs)
	}
	steps := reg.Counter("ocean.steps").Value()
	if steps < 21 {
		t.Errorf("ocean.steps = %d, want at least the 21 steps taken", steps)
	}
	st := reg.Snapshot().Histograms["ocean.step.time"]
	if st.Count != steps || st.Sum <= 0 {
		t.Errorf("ocean.step.time count %d sum %g, want count = ocean.steps (%d) and sum > 0", st.Count, st.Sum, steps)
	}
}
