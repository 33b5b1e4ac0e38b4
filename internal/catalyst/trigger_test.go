package catalyst

import (
	"testing"
)

func TestPeriodicTrigger(t *testing.T) {
	tr := &PeriodicTrigger{Every: 4}
	f := []float64{1}
	fires := 0
	for step := 0; step <= 12; step++ {
		if tr.ShouldFire(step, f) {
			fires++
			if step%4 != 0 || step == 0 {
				t.Fatalf("fired at step %d", step)
			}
		}
	}
	if fires != 3 {
		t.Errorf("fires = %d, want 3", fires)
	}
	if tr.Name() == "" {
		t.Error("empty name")
	}
	zero := &PeriodicTrigger{}
	if zero.ShouldFire(4, f) {
		t.Error("zero-period trigger fired")
	}
}

func TestNewAdaptiveTriggerValidation(t *testing.T) {
	if _, err := NewAdaptiveTrigger(0, 10, 0.1); err == nil {
		t.Error("zero min interval accepted")
	}
	if _, err := NewAdaptiveTrigger(5, 4, 0.1); err == nil {
		t.Error("max < min accepted")
	}
	if _, err := NewAdaptiveTrigger(1, 10, 0); err == nil {
		t.Error("zero threshold accepted")
	}
}

func TestAdaptiveTriggerQuiescentVsChanging(t *testing.T) {
	tr, err := NewAdaptiveTrigger(2, 50, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() == "" {
		t.Error("empty name")
	}
	constant := []float64{1, 2, 3}
	fires := 0
	for step := 1; step <= 40; step++ {
		if tr.ShouldFire(step, constant) {
			fires++
		}
	}
	// Quiescent field: only the initial firing (step >= MinInterval).
	if fires != 1 {
		t.Errorf("quiescent fires = %d, want 1 (initial only)", fires)
	}

	// A drifting field fires as often as MinInterval allows.
	tr2, _ := NewAdaptiveTrigger(2, 50, 0.1)
	fires = 0
	field := []float64{1, 2, 3}
	for step := 1; step <= 20; step++ {
		for i := range field {
			field[i] *= 1.2 // 20% drift per step
		}
		if tr2.ShouldFire(step, field) {
			fires++
		}
	}
	if fires < 8 {
		t.Errorf("drifting fires = %d, want ~10 (every MinInterval)", fires)
	}
}

func TestAdaptiveTriggerMaxIntervalForcesFiring(t *testing.T) {
	tr, _ := NewAdaptiveTrigger(1, 5, 0.5)
	constant := []float64{7}
	var firedSteps []int
	for step := 1; step <= 16; step++ {
		if tr.ShouldFire(step, constant) {
			firedSteps = append(firedSteps, step)
		}
	}
	// Initial at 1, then forced at 6, 11, 16.
	want := []int{1, 6, 11, 16}
	if len(firedSteps) != len(want) {
		t.Fatalf("fired at %v, want %v", firedSteps, want)
	}
	for i := range want {
		if firedSteps[i] != want[i] {
			t.Fatalf("fired at %v, want %v", firedSteps, want)
		}
	}
}

func TestAdaptiveTriggerEdgeCases(t *testing.T) {
	tr, _ := NewAdaptiveTrigger(1, 100, 0.1)
	if tr.ShouldFire(0, []float64{1}) {
		t.Error("fired at step 0")
	}
	if tr.ShouldFire(1, nil) {
		t.Error("fired on empty field")
	}
	// Zero reference with zero change: no fire; nonzero change: fire.
	if !tr.ShouldFire(1, []float64{0, 0}) {
		t.Error("initial fire missing")
	}
	if tr.ShouldFire(2, []float64{0, 0}) {
		t.Error("fired with zero reference and zero drift")
	}
	if !tr.ShouldFire(3, []float64{0, 1}) {
		t.Error("did not fire on drift from zero reference")
	}
	// Shape change counts as full drift.
	if !tr.ShouldFire(4, []float64{1, 2, 3}) {
		t.Error("did not fire on field shape change")
	}
}

func TestAdaptiveSamplingReducesOutputsOnDecayingFlow(t *testing.T) {
	// Synthetic "simulation": a field that changes quickly at first and
	// then settles. Periodic sampling keeps writing; adaptive sampling
	// stops once quiescent, at equal minimum responsiveness.
	field := make([]float64, 64)
	for i := range field {
		field[i] = float64(i)
	}
	periodic := &PeriodicTrigger{Every: 2}
	adaptive, _ := NewAdaptiveTrigger(2, 40, 0.05)
	pFires, aFires := 0, 0
	for step := 1; step <= 60; step++ {
		// Strong drift for 20 steps, then frozen.
		if step <= 20 {
			for i := range field {
				field[i] *= 1.1
			}
		}
		if periodic.ShouldFire(step, field) {
			pFires++
		}
		if adaptive.ShouldFire(step, field) {
			aFires++
		}
	}
	if aFires >= pFires {
		t.Errorf("adaptive fired %d >= periodic %d on a settling flow", aFires, pFires)
	}
	if aFires < 10 {
		t.Errorf("adaptive fired only %d times, should track the active phase", aFires)
	}
}
