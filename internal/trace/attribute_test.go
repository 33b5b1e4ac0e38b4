package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"insituviz/internal/power"
	"insituviz/internal/units"
)

func TestPhaseIntervalsInnermostWins(t *testing.T) {
	tr := New(Options{})
	l := tr.Lane("driver")
	// outer [0,100] with inner [30,60]: the inner span claims its window.
	l.record(EventBegin, "outer", "", 0, false)
	l.record(EventBegin, "inner", "", 30, false)
	l.record(EventEnd, "", "", 60, false)
	l.record(EventEnd, "", "", 100, false)
	// gap [100,120], then a lone span [120,150].
	l.record(EventBegin, "tail", "", 120, false)
	l.record(EventEnd, "", "", 150, false)

	ivs := tr.Snapshot().Lane("driver").PhaseIntervals()
	want := []Interval{
		{"outer", nsToSeconds(0), nsToSeconds(30)},
		{"inner", nsToSeconds(30), nsToSeconds(60)},
		{"outer", nsToSeconds(60), nsToSeconds(100)},
		{"", nsToSeconds(100), nsToSeconds(120)},
		{"tail", nsToSeconds(120), nsToSeconds(150)},
	}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %+v", ivs)
	}
	for i, iv := range ivs {
		if iv != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, iv, want[i])
		}
	}
	// Contiguity: the step function has no holes or overlaps.
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start != ivs[i-1].End {
			t.Errorf("interval %d not contiguous", i)
		}
	}
}

func TestPhaseIntervalsMergesRepeats(t *testing.T) {
	tr := New(Options{})
	l := tr.Lane("driver")
	l.SpanAt("step", "", 0, 10)
	l.SpanAt("step", "", 10, 20) // back-to-back same phase: one interval
	ivs := tr.Snapshot().Lane("driver").PhaseIntervals()
	if len(ivs) != 1 || ivs[0] != (Interval{"step", 0, nsToSeconds(20)}) {
		t.Errorf("intervals = %+v", ivs)
	}
}

func TestPhaseIntervalsEmpty(t *testing.T) {
	var lt *LaneTimeline
	if lt.PhaseIntervals() != nil {
		t.Error("nil lane produced intervals")
	}
	if (&LaneTimeline{}).PhaseIntervals() != nil {
		t.Error("empty lane produced intervals")
	}
}

// synthProfile builds a profile over [0, 10s): 3 full 3-second samples
// plus a final one covering 1 of 3 seconds (LastPartial 1/3).
func synthProfile() *power.Profile {
	return &power.Profile{
		Interval:    3,
		Powers:      []units.Watts{100, 200, 300, 600},
		LastPartial: 1.0 / 3.0,
	}
}

// TestAttributeConservation is the acceptance criterion at package scope:
// per-phase energies sum to Profile.Energy() within 1e-9 relative, with
// LastPartial honored and uncovered time charged to Unattributed.
func TestAttributeConservation(t *testing.T) {
	prof := synthProfile()
	intervals := []Interval{
		{"simulate", 0, 4},
		{"io", 4, 5},
		{"simulate", 5, 8},
		// [8, 10) uncovered -> Unattributed.
	}
	att, err := Attribute("test-meter", intervals, prof)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range att.Phases {
		sum += float64(p.Energy)
	}
	total := float64(prof.Energy())
	if d := math.Abs(sum-total) / total; d > 1e-9 {
		t.Errorf("phase sum %g vs profile energy %g (rel %g)", sum, total, d)
	}
	if d := math.Abs(float64(att.Total)-total) / total; d > 1e-9 {
		t.Errorf("att.Total %g vs profile energy %g", float64(att.Total), total)
	}
	if math.Abs(float64(att.Window-prof.Duration())) > 1e-9 {
		t.Errorf("window %v, profile duration %v", att.Window, prof.Duration())
	}
	// Hand-checked rows: simulate covers [0,4)+[5,8) = 3s@100 + 1s@200 +
	// 1s@200 + 2s@300 = 1300 J; io covers [4,5) = 1s@200; the final
	// sample's observed 1s ([9,10)) is uncovered.
	sim := att.Phase("simulate")
	if math.Abs(float64(sim.Energy)-1300) > 1e-9 {
		t.Errorf("simulate energy = %v", sim.Energy)
	}
	if sim.Time != 7 {
		t.Errorf("simulate time = %v", sim.Time)
	}
	io := att.Phase("io")
	if math.Abs(float64(io.Energy)-200) > 1e-9 {
		t.Errorf("io energy = %v", io.Energy)
	}
	un := att.Phase(Unattributed)
	// [8,9) at 300 W plus the observed third of the last sample at 600 W.
	if math.Abs(float64(un.Energy)-(300+600)) > 1e-6 {
		t.Errorf("unattributed energy = %v", un.Energy)
	}
	if math.Abs(float64(un.Time)-2) > 1e-9 {
		t.Errorf("unattributed time = %v", un.Time)
	}
	// AvgPower is energy/time.
	if math.Abs(float64(io.AvgPower)-200) > 1e-9 {
		t.Errorf("io avg power = %v", io.AvgPower)
	}
}

func TestAttributeEmptyPhaseNameLandsUnattributed(t *testing.T) {
	prof := &power.Profile{Interval: 1, Powers: []units.Watts{50}, LastPartial: 1}
	att, err := Attribute("m", []Interval{{"", 0, 1}}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Phases) != 1 || att.Phases[0].Phase != Unattributed {
		t.Errorf("phases = %+v", att.Phases)
	}
}

func TestAttributeRejectsBadInput(t *testing.T) {
	good := &power.Profile{Interval: 1, Powers: []units.Watts{1}, LastPartial: 1}
	if _, err := Attribute("m", nil, nil); err == nil {
		t.Error("nil profile accepted")
	}
	bad := &power.Profile{Interval: 1, Powers: []units.Watts{1}} // LastPartial unset
	if _, err := Attribute("m", nil, bad); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := Attribute("m", []Interval{{"a", 5, 2}}, good); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := Attribute("m", []Interval{{"a", 0, 2}, {"b", 1, 3}}, good); err == nil {
		t.Error("overlapping intervals accepted")
	}
}

func TestAttributionPhaseLookup(t *testing.T) {
	att := &Attribution{Phases: []PhaseEnergy{{Phase: "a", Energy: 5}}}
	if att.Phase("a").Energy != 5 {
		t.Error("lookup failed")
	}
	if z := att.Phase("missing"); z.Phase != "missing" || z.Energy != 0 {
		t.Errorf("missing phase = %+v", z)
	}
}

// TestReportByteStability pins the exporters' determinism: identical
// attributions render byte-identically, with phases in sorted name order.
func TestReportByteStability(t *testing.T) {
	prof := synthProfile()
	intervals := []Interval{{"b-phase", 0, 4}, {"a-phase", 4, 9}}
	render := func() (string, string) {
		att, err := Attribute("m", intervals, prof)
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := att.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := att.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render()
	j2, c2 := render()
	if j1 != j2 {
		t.Error("JSON rendering not byte-stable")
	}
	if c1 != c2 {
		t.Error("CSV rendering not byte-stable")
	}
	if !strings.HasSuffix(j1, "\n") {
		t.Error("JSON missing trailing newline")
	}
	lines := strings.Split(strings.TrimSpace(c1), "\n")
	if lines[0] != "phase,seconds,joules,avg_watts" {
		t.Errorf("CSV header = %q", lines[0])
	}
	// Sorted phase order: (unattributed) < a-phase < b-phase.
	if !strings.HasPrefix(lines[1], "(unattributed),") ||
		!strings.HasPrefix(lines[2], "a-phase,") ||
		!strings.HasPrefix(lines[3], "b-phase,") {
		t.Errorf("CSV rows out of order: %v", lines[1:])
	}
}

func TestNodePowerModel(t *testing.T) {
	pm := NodePowerModel()
	busy := float64(pm.watts("sim.step"))
	idle := float64(pm.watts(""))
	ioW := float64(pm.watts("io.dump"))
	if idle != 100 {
		t.Errorf("idle = %g", idle)
	}
	if math.Abs(busy-44000.0/150) > 1e-12 {
		t.Errorf("busy = %g", busy)
	}
	// The paper's central measurement: I/O draws near-busy power.
	if ioW <= idle+0.9*(busy-idle) || ioW > busy {
		t.Errorf("io draw = %g, want near busy (%g)", ioW, busy)
	}
	if pm.watts(Unattributed) != pm.Idle {
		t.Error("unattributed should draw idle")
	}
}

func TestPowerModelTraceAndAttributeRoundTrip(t *testing.T) {
	pm := NodePowerModel()
	intervals := []Interval{
		{"sim.step", 0, 2},
		{"io.dump", 2, 3},
		{"", 3, 3.5},
	}
	gt, err := pm.Trace(intervals)
	if err != nil {
		t.Fatal(err)
	}
	meter := power.Meter{Interval: 0.25, Name: "node-model"}
	prof, err := meter.Sample(gt)
	if err != nil {
		t.Fatal(err)
	}
	att, err := Attribute(meter.Name, intervals, prof)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range att.Phases {
		sum += float64(p.Energy)
	}
	total := float64(prof.Energy())
	if d := math.Abs(sum-total) / total; d > 1e-9 {
		t.Errorf("round trip: phase sum %g vs %g", sum, total)
	}
	// Meter boundaries align with interval boundaries here, so the join
	// recovers the model's draw exactly.
	if got := att.Phase("sim.step").AvgPower; math.Abs(float64(got-pm.Busy)) > 1e-9 {
		t.Errorf("sim.step avg = %v, want %v", got, pm.Busy)
	}
	if got := att.Phase(Unattributed).AvgPower; math.Abs(float64(got-pm.Idle)) > 1e-9 {
		t.Errorf("gap avg = %v, want %v", got, pm.Idle)
	}
}
