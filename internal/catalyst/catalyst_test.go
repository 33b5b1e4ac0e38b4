package catalyst

import (
	"errors"
	"testing"

	"insituviz/internal/units"
)

func TestNewAdaptorValidation(t *testing.T) {
	if _, err := NewAdaptor(0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewAdaptor(-2); err == nil {
		t.Error("negative period accepted")
	}
}

func TestShouldProcess(t *testing.T) {
	a, err := NewAdaptor(16)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShouldProcess(0) {
		t.Error("step 0 should not fire")
	}
	if a.ShouldProcess(15) {
		t.Error("step 15 should not fire")
	}
	if !a.ShouldProcess(16) || !a.ShouldProcess(32) {
		t.Error("multiples of the period should fire")
	}
}

func TestCoProcessDeliversDeepCopy(t *testing.T) {
	a, _ := NewAdaptor(2)
	var got *FieldData
	a.AddPipeline(PipelineFunc(func(fd *FieldData) error {
		got = fd
		return nil
	}))
	sim := []float64{1, 2, 3}
	fired, err := a.CoProcess(2, 3600, "okubo_weiss", sim)
	if err != nil || !fired {
		t.Fatalf("fired=%v err=%v", fired, err)
	}
	if got == nil || got.Name != "okubo_weiss" || got.Step != 2 || got.Time != 3600 {
		t.Fatalf("delivered = %+v", got)
	}
	// Mutating the simulation buffer must not affect the snapshot.
	sim[0] = 99
	if got.Values[0] != 1 {
		t.Error("adaptor did not deep-copy the field")
	}
	if got.Bytes() != units.Bytes(24) {
		t.Errorf("Bytes = %v, want 24", got.Bytes())
	}
}

func TestCoProcessSkipsOffSteps(t *testing.T) {
	a, _ := NewAdaptor(3)
	calls := 0
	a.AddPipeline(PipelineFunc(func(fd *FieldData) error {
		calls++
		return nil
	}))
	for step := 0; step <= 9; step++ {
		fired, err := a.CoProcess(step, float64(step), "f", []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if fired != (step > 0 && step%3 == 0) {
			t.Errorf("step %d fired=%v", step, fired)
		}
	}
	if calls != 3 {
		t.Errorf("pipeline ran %d times, want 3", calls)
	}
	if a.Invocations() != 3 {
		t.Errorf("Invocations = %d", a.Invocations())
	}
	if a.BytesCopied() != units.Bytes(3*8) {
		t.Errorf("BytesCopied = %v", a.BytesCopied())
	}
}

func TestCoProcessFansOut(t *testing.T) {
	a, _ := NewAdaptor(1)
	n1, n2 := 0, 0
	a.AddPipeline(PipelineFunc(func(fd *FieldData) error { n1++; return nil }))
	a.AddPipeline(PipelineFunc(func(fd *FieldData) error { n2++; return nil }))
	if _, err := a.CoProcess(1, 0, "f", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if n1 != 1 || n2 != 1 {
		t.Errorf("fan-out = %d, %d", n1, n2)
	}
}

func TestCoProcessErrors(t *testing.T) {
	a, _ := NewAdaptor(1)
	if err := a.AddPipeline(nil); err == nil {
		t.Error("nil pipeline accepted")
	}
	boom := errors.New("render failed")
	a.AddPipeline(PipelineFunc(func(fd *FieldData) error { return boom }))
	fired, err := a.CoProcess(1, 0, "f", []float64{1})
	if !fired || !errors.Is(err, boom) {
		t.Errorf("fired=%v err=%v", fired, err)
	}
	if _, err := a.CoProcess(1, 0, "f", nil); err == nil {
		t.Error("empty field accepted")
	}
}

func TestSetReuseSnapshotSemantics(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	// With reuse on, successive invocations deliver the same retained
	// snapshot (overwritten in place) and the steady-state path stops
	// allocating; the deep-copy contract is unchanged.
	a, _ := NewAdaptor(1)
	a.SetReuse(true)
	var seen []*FieldData
	var values [][]float64
	record := true
	a.AddPipeline(PipelineFunc(func(fd *FieldData) error {
		if record {
			seen = append(seen, fd)
			values = append(values, append([]float64(nil), fd.Values...))
		}
		return nil
	}))

	sim := []float64{1, 2, 3}
	if _, err := a.CoProcess(1, 0.5, "ow", sim); err != nil {
		t.Fatal(err)
	}
	sim[0] = 99 // the simulation overwrites its buffer; the snapshot must not change
	if _, err := a.CoProcess(2, 1.0, "ow", sim); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != seen[1] {
		t.Fatalf("reuse should deliver the same retained snapshot, got %p and %p", seen[0], seen[1])
	}
	if values[0][0] != 1 || values[1][0] != 99 {
		t.Errorf("snapshot values = %v then %v, want deep copies of the sim buffer at each invocation", values[0], values[1])
	}
	if seen[1].Step != 2 || seen[1].Time != 1.0 || seen[1].Name != "ow" {
		t.Errorf("snapshot metadata not updated: %+v", seen[1])
	}

	record = false
	step := 3
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := a.CoProcess(step, 1.5, "ow", sim); err != nil {
			t.Fatal(err)
		}
		step++
	})
	if allocs != 0 {
		t.Errorf("reused CoProcess allocates %.1f objects per run, want 0", allocs)
	}
}
