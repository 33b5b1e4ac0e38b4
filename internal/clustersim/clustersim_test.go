package clustersim

import (
	"math"
	"testing"

	"insituviz/internal/trace"
	"insituviz/internal/units"
)

func newMachine(t testing.TB) *Machine {
	t.Helper()
	m, err := New(Caddy())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCaddyMatchesPaper(t *testing.T) {
	m := newMachine(t)
	if cores := m.cfg.Nodes * m.cfg.CoresPerNode; m.cfg.Nodes != 150 || cores != 2400 {
		t.Errorf("size = %d nodes, %d cores", m.cfg.Nodes, cores)
	}
	if len(m.cageTraces) != 15 {
		t.Errorf("cages = %d, want 15", len(m.cageTraces))
	}
	if got := m.IdlePower(); math.Abs(float64(got)-15000) > 1 {
		t.Errorf("idle power = %v, want 15 kW", got)
	}
	if got := m.BusyPower(); math.Abs(float64(got)-44000) > 1 {
		t.Errorf("busy power = %v, want 44 kW", got)
	}
	// The paper reports a 193% dynamic range for compute.
	if pp := m.PowerProportionality(); math.Abs(pp-1.933) > 0.01 {
		t.Errorf("power proportionality = %v, want ~1.93", pp)
	}
}

func TestNewValidation(t *testing.T) {
	bad := Caddy()
	bad.Nodes = 0
	if _, err := New(bad); err == nil {
		t.Error("zero nodes accepted")
	}
	bad = Caddy()
	bad.NodesPerCage = 0
	if _, err := New(bad); err == nil {
		t.Error("zero cage size accepted")
	}
	bad = Caddy()
	bad.NodeBusyPower = bad.NodeIdlePower - 1
	if _, err := New(bad); err == nil {
		t.Error("busy < idle accepted")
	}
}

func TestUnevenCages(t *testing.T) {
	cfg := Caddy()
	cfg.Nodes = 14
	cfg.NodesPerCage = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.cageTraces) != 4 {
		t.Fatalf("cages = %d, want 4", len(m.cageTraces))
	}
	// 4+4+4+2: total power must still reflect all 14 nodes.
	if err := m.Run(PhaseSimulate, 60, "x"); err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.NodeBusyPower) * 14
	if got := m.PowerTrace().At(30); math.Abs(float64(got)-want) > 1e-6 {
		t.Errorf("uneven cage power = %v, want %v", got, want)
	}
}

func TestPhaseUtilizations(t *testing.T) {
	if PhaseSimulate.Utilization() != 1 || PhaseVisualize.Utilization() != 1 {
		t.Error("busy phases should have utilization 1")
	}
	if PhaseIdle.Utilization() != 0 {
		t.Error("idle phase should have utilization 0")
	}
	io := PhaseIOWait.Utilization()
	if io <= 0.85 || io >= 1 {
		t.Errorf("io-wait utilization = %v, want near but below 1 (paper: power stays high during I/O)", io)
	}
	for _, k := range []PhaseKind{PhaseIdle, PhaseSimulate, PhaseIOWait, PhaseVisualize} {
		if k.String() == "" {
			t.Error("empty phase name")
		}
	}
	if PhaseKind(99).String() == "" {
		t.Error("unknown phase has empty name")
	}
}

func TestRunAdvancesClockAndPower(t *testing.T) {
	m := newMachine(t)
	if err := m.Run(PhaseSimulate, 603, "ocean"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(PhaseIOWait, 100, "dump"); err != nil {
		t.Fatal(err)
	}
	if m.Clock() != 703 {
		t.Errorf("clock = %v, want 703", m.Clock())
	}
	tr := m.PowerTrace()
	if got := tr.At(300); math.Abs(float64(got)-44000) > 1 {
		t.Errorf("simulate power = %v, want 44 kW", got)
	}
	ioP := tr.At(650)
	if !(float64(ioP) > 40000 && float64(ioP) < 44000) {
		t.Errorf("io-wait power = %v, want slightly below 44 kW", ioP)
	}
	phases := m.Phases()
	if len(phases) != 2 || phases[0].Label != "ocean" || phases[1].Kind != PhaseIOWait {
		t.Errorf("phases = %+v", phases)
	}
	if phases[0].Duration() != 603 {
		t.Errorf("phase duration = %v", phases[0].Duration())
	}
	if m.PhaseTime(PhaseSimulate) != 603 || m.PhaseTime(PhaseIOWait) != 100 {
		t.Error("PhaseTime accounting wrong")
	}
}

func TestRunValidation(t *testing.T) {
	m := newMachine(t)
	if err := m.Run(PhaseSimulate, -1, "x"); err == nil {
		t.Error("negative duration accepted")
	}
	if err := m.Run(PhaseSimulate, 0, "x"); err != nil {
		t.Errorf("zero duration should be a no-op: %v", err)
	}
	if len(m.Phases()) != 0 {
		t.Error("zero-duration phase recorded")
	}
}

func TestRunUntil(t *testing.T) {
	m := newMachine(t)
	if err := m.Run(PhaseSimulate, 100, "a"); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(PhaseIOWait, 250, "wait"); err != nil {
		t.Fatal(err)
	}
	if m.Clock() != 250 {
		t.Errorf("clock = %v", m.Clock())
	}
	if err := m.RunUntil(PhaseIOWait, 200, "backwards"); err == nil {
		t.Error("backwards RunUntil accepted")
	}
	// RunUntil to the current time is a no-op.
	if err := m.RunUntil(PhaseIdle, 250, "noop"); err != nil {
		t.Errorf("no-op RunUntil failed: %v", err)
	}
}

func TestCageTraces(t *testing.T) {
	m := newMachine(t)
	if err := m.Run(PhaseSimulate, 120, "x"); err != nil {
		t.Fatal(err)
	}
	tr := m.cageTraces[0]
	// One cage of 10 nodes at full load: 10 x 293.33 W.
	want := 10 * 44000.0 / 150
	if got := tr.At(60); math.Abs(float64(got)-want) > 1e-6 {
		t.Errorf("cage power = %v, want %v", got, want)
	}
}

func TestMeterAllCages(t *testing.T) {
	m := newMachine(t)
	if err := m.Run(PhaseSimulate, 120, "x"); err != nil {
		t.Fatal(err)
	}
	prof, err := m.MeterAllCages(units.Minutes(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Powers) != 2 {
		t.Fatalf("samples = %d, want 2", len(prof.Powers))
	}
	if math.Abs(float64(prof.Powers[0])-44000) > 1 {
		t.Errorf("metered power = %v, want 44 kW", prof.Powers[0])
	}
	avg, err := prof.Average()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(avg)-44000) > 1 {
		t.Errorf("metered average = %v", avg)
	}
	// Metered energy must match the ground truth for aligned traces.
	if got, want := prof.Energy(), m.PowerTrace().Energy(); math.Abs(float64(got-want)) > 1 {
		t.Errorf("metered energy %v != ground truth %v", got, want)
	}
	empty := newMachine(t)
	if _, err := empty.MeterAllCages(units.Minutes(1)); err == nil {
		t.Error("metering an idle machine accepted")
	}
}

func TestPowerAtClamps(t *testing.T) {
	m := newMachine(t)
	if got := m.PowerAt(-0.5); got != m.IdlePower() {
		t.Errorf("PowerAt(-0.5) = %v", got)
	}
	if got := m.PowerAt(2); got != m.BusyPower() {
		t.Errorf("PowerAt(2) = %v", got)
	}
	mid := m.PowerAt(0.5)
	want := (float64(m.IdlePower()) + float64(m.BusyPower())) / 2
	if math.Abs(float64(mid)-want) > 1e-9 {
		t.Errorf("PowerAt(0.5) = %v, want %v", mid, want)
	}
}

// TestSetTrace: with a lane attached, every executed phase is mirrored as
// a span at simulated time, named by kind with the label as detail.
func TestSetTrace(t *testing.T) {
	m, err := New(Caddy())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{})
	m.SetTrace(tr.Lane("machine"))
	if err := m.Run(PhaseSimulate, 120, "window"); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(PhaseIOWait, 150, "dump"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(PhaseVisualize, 0, "zero-length"); err != nil {
		t.Fatal(err) // zero-duration phases are skipped, not recorded
	}
	lt := tr.Snapshot().Lane("machine")
	if lt == nil || len(lt.Spans) != 2 {
		t.Fatalf("spans = %+v", lt)
	}
	s0, s1 := lt.Spans[0], lt.Spans[1]
	if s0.Name != PhaseSimulate.String() || s0.Detail != "window" {
		t.Errorf("span 0 = %+v", s0)
	}
	if float64(s0.Start) != 0 || float64(s0.End) != 120 {
		t.Errorf("span 0 window = [%v, %v]", s0.Start, s0.End)
	}
	if s1.Name != PhaseIOWait.String() || float64(s1.End) != 150 {
		t.Errorf("span 1 = %+v", s1)
	}
	// Detaching stops recording; the machine keeps running.
	m.SetTrace(nil)
	if err := m.Run(PhaseSimulate, 10, "untraced"); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Snapshot().Lane("machine").Spans); got != 2 {
		t.Errorf("spans after detach = %d", got)
	}
}
