package pipeline

import (
	"math"
	"testing"

	"insituviz/internal/clustersim"
	"insituviz/internal/units"
)

func TestInTransitKindString(t *testing.T) {
	if InTransit.String() != "in-transit" {
		t.Errorf("String = %q", InTransit.String())
	}
}

func TestInTransitStagingValidation(t *testing.T) {
	w := ReferenceWorkload(units.Hours(24))
	p := CaddyPlatform()
	p.StagingNodes = 5 // less than one cage
	if _, err := Run(InTransit, w, p); err == nil {
		t.Error("sub-cage staging partition accepted")
	}
	p.StagingNodes = 150 // no simulation nodes left
	if _, err := Run(InTransit, w, p); err == nil {
		t.Error("all-staging partition accepted")
	}
	p.StagingNodes = 0 // default
	if _, err := Run(InTransit, w, p); err != nil {
		t.Errorf("default staging failed: %v", err)
	}
}

func TestInTransitMetricsConsistency(t *testing.T) {
	w := ReferenceWorkload(units.Hours(24))
	p := CaddyPlatform()
	p.StagingNodes = 50
	m, err := Run(InTransit, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != InTransit {
		t.Errorf("kind = %v", m.Kind)
	}
	if m.Outputs != 180 || m.Images != 180 {
		t.Errorf("outputs = %d, images = %d", m.Outputs, m.Images)
	}
	// The simulation partition is smaller, so the pure simulation phase is
	// longer than the 150-node 603 s.
	wantSim := 603.0 * 150 / 100
	if math.Abs(float64(m.SimTime)-wantSim) > 2 {
		t.Errorf("sim time = %v, want ~%v", m.SimTime, wantSim)
	}
	// Staging renders strong-scale: 180 sets at beta*150/50.
	wantViz := 180 * RenderSecondsPerSet * 150 / 50
	if math.Abs(float64(m.VizTime)-wantViz) > 2 {
		t.Errorf("viz time = %v, want ~%v", m.VizTime, wantViz)
	}
	// Storage holds only images.
	if m.StorageUsed > units.GB {
		t.Errorf("storage = %v, want images only", m.StorageUsed)
	}
	// Power must sit between idle and full load, and below the all-busy
	// in-situ level because staging idles between renders.
	insitu, err := Run(InSitu, w, CaddyPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgComputePower >= insitu.AvgComputePower {
		t.Errorf("in-transit compute power %v should be below in-situ %v (staging idles)",
			m.AvgComputePower, insitu.AvgComputePower)
	}
	if float64(m.AvgComputePower) < 15000 {
		t.Errorf("compute power %v below idle floor", m.AvgComputePower)
	}
	// Metered energy tracks ground truth.
	truth := m.ComputeTrace.Energy() + m.StorageTrace.Energy()
	if rel := math.Abs(float64(m.Energy-truth)) / float64(truth); rel > 0.01 {
		t.Errorf("metered energy off by %.2f%%", rel*100)
	}
}

func TestInTransitBackpressure(t *testing.T) {
	// With a tiny staging partition, rendering (beta*150/10 = 18 s/set)
	// cannot keep up with 24-hour windows (~4 s of simulation), so the
	// simulation must stall on backpressure and the run becomes
	// staging-bound: ~outputs * renderDur.
	w := ReferenceWorkload(units.Hours(24))
	p := CaddyPlatform()
	p.StagingNodes = 10
	m, err := Run(InTransit, w, p)
	if err != nil {
		t.Fatal(err)
	}
	renderDur := RenderSecondsPerSet * 150 / 10
	lower := 180 * renderDur
	if float64(m.ExecutionTime) < lower {
		t.Errorf("execution time %v below staging-bound floor %v", m.ExecutionTime, lower)
	}
	// Backpressure shows up as simulation-side I/O wait.
	var backpressure units.Seconds
	for _, ph := range m.Phases {
		if ph.Kind == clustersim.PhaseIOWait && ph.Label == "staging backpressure" {
			backpressure += ph.Duration()
		}
	}
	if backpressure <= 0 {
		t.Error("expected backpressure stalls with a 10-node staging partition")
	}
}

func TestInTransitBalancedPartitionAvoidsBackpressure(t *testing.T) {
	// With a generous staging partition at a coarse sampling rate, the
	// simulation should never stall: execution time ~ sim time plus
	// transfers plus the final render drain.
	w := ReferenceWorkload(units.Hours(72))
	p := CaddyPlatform()
	p.StagingNodes = 70
	m, err := Run(InTransit, w, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range m.Phases {
		if ph.Label == "staging backpressure" && ph.Duration() > 0 {
			t.Fatalf("unexpected backpressure of %v", ph.Duration())
		}
	}
	// Run time is close to the (smaller-partition) simulation time.
	simTime := 603.0 * 150 / 80
	if float64(m.ExecutionTime) > simTime*1.15 {
		t.Errorf("execution time %v far above sim-bound %v", m.ExecutionTime, simTime)
	}
}

func TestInTransitTradeoffSweep(t *testing.T) {
	// Sweeping the partition split must show the characteristic U-shape:
	// too few staging nodes -> staging-bound; too many -> simulation-bound.
	w := ReferenceWorkload(units.Hours(24))
	times := map[int]float64{}
	for _, staging := range []int{10, 50, 100} {
		p := CaddyPlatform()
		p.StagingNodes = staging
		m, err := Run(InTransit, w, p)
		if err != nil {
			t.Fatal(err)
		}
		times[staging] = float64(m.ExecutionTime)
	}
	if !(times[50] < times[10]) {
		t.Errorf("50 staging nodes (%v s) should beat 10 (%v s)", times[50], times[10])
	}
	if !(times[50] < times[100]) {
		t.Errorf("50 staging nodes (%v s) should beat 100 (%v s)", times[50], times[100])
	}
}
