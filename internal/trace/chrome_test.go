package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"insituviz/internal/power"
	"insituviz/internal/units"
)

func buildTimeline() *Tracer {
	tr := New(Options{})
	drv := tr.Lane("driver")
	drv.SpanAt("sim.step", "", 0, 1000)
	drv.record(EventBegin, "viz.sample", "", 1000, false)
	drv.record(EventBegin, "viz.render", "", 1100, false)
	drv.record(EventEnd, "", "", 1600, false)
	drv.record(EventEnd, "", "", 2000, false)
	drv.record(EventInstant, "dump.landed", "", 2000, false)
	tr.Lane("render.rank0").SpanAt("render.rank", "mask 0", 1100, 1500)
	return tr
}

// TestWriteChromeRoundTrip is the export half of the acceptance criterion:
// the document round-trips through encoding/json with name/ph/ts/pid/tid
// present on every event, plus power counter tracks.
func TestWriteChromeRoundTrip(t *testing.T) {
	tr := buildTimeline()
	prof := &power.Profile{
		Interval:    units.Seconds(1e-6),
		Powers:      []units.Watts{100, 250},
		LastPartial: 1,
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Snapshot(), CounterTrack{Name: "power", Profile: prof}); err != nil {
		t.Fatal(err)
	}
	events, counters, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// 2 thread_name metadata + 4 spans + 1 instant + 2 counter samples +
	// 1 closing counter.
	if events != 10 {
		t.Errorf("events = %d, want 10", events)
	}
	if counters != 3 {
		t.Errorf("counter events = %d, want 3", counters)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byPh := map[string]int{}
	var sawDetail, sawCounterArg bool
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
		if e.Ph == "X" && e.Args["detail"] == "mask 0" {
			sawDetail = true
		}
		if e.Ph == "C" {
			if _, ok := e.Args["W"]; ok {
				sawCounterArg = true
			}
			if e.TID < counterTIDBase {
				t.Errorf("counter tid %d collides with span lanes", e.TID)
			}
		}
	}
	if byPh["M"] != 2 || byPh["X"] != 4 || byPh["i"] != 1 || byPh["C"] != 3 {
		t.Errorf("event phases = %v", byPh)
	}
	if !sawDetail {
		t.Error("span detail not exported")
	}
	if !sawCounterArg {
		t.Error("counter events missing W argument")
	}
}

// TestWriteChromeByteStable pins the exporter's determinism.
func TestWriteChromeByteStable(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, buildTimeline().Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Error("identical timelines render differently")
	}
}

func TestWriteChromeErrors(t *testing.T) {
	if err := WriteChrome(nil, &Timeline{}); err == nil {
		t.Error("nil writer accepted")
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err == nil {
		t.Error("nil timeline accepted")
	}
}

func TestWriteChromeEmptyTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, &Timeline{}); err != nil {
		t.Fatal(err)
	}
	events, _, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if events != 0 {
		t.Errorf("events = %d", events)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	if _, _, err := ValidateChrome([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := ValidateChrome([]byte(`{}`)); err == nil {
		t.Error("missing traceEvents accepted")
	}
	if _, _, err := ValidateChrome([]byte(`{"traceEvents":[{"name":"x","ph":"X"}]}`)); err == nil {
		t.Error("event missing ts/pid/tid accepted")
	}
	if _, _, err := ValidateChrome([]byte(`{"traceEvents":[{"name":"x","ph":7,"ts":0,"pid":1,"tid":1}]}`)); err == nil {
		t.Error("non-string ph accepted")
	}
}
