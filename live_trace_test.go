package insituviz

import (
	"bytes"
	"math"
	"testing"

	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

// tracedLiveRun runs a small live configuration with a tracer attached.
func tracedLiveRun(t *testing.T, mode Kind) (*LiveResult, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Options{})
	res, err := LiveRun(LiveConfig{
		Mode:             mode,
		MeshSubdivisions: 2,
		Steps:            24,
		SampleEverySteps: 8,
		OutputDir:        t.TempDir(),
		ImageWidth:       96,
		ImageHeight:      48,
		RenderRanks:      3,
		Tracer:           tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// TestLiveRunTraceAttribution is the acceptance criterion on the live
// stack: in both modes, the per-phase energies derived from the trace sum
// to the synthetic profile's energy within 1e-9 relative.
func TestLiveRunTraceAttribution(t *testing.T) {
	for _, mode := range []Kind{InSitu, PostProcessing} {
		res, _ := tracedLiveRun(t, mode)
		if res.Timeline == nil {
			t.Fatalf("%v: no timeline", mode)
		}
		if res.PowerProfile == nil || res.PhaseEnergy == nil {
			t.Fatalf("%v: no attribution (profile %v, energy %v)",
				mode, res.PowerProfile, res.PhaseEnergy)
		}
		var sum float64
		for _, p := range res.PhaseEnergy.Phases {
			sum += float64(p.Energy)
		}
		total := float64(res.PowerProfile.Energy())
		if d := math.Abs(sum-total) / total; d > 1e-9 {
			t.Errorf("%v: phase energies sum to %g, profile energy %g (rel %g)",
				mode, sum, total, d)
		}
		if sim := res.PhaseEnergy.Phase("sim.step"); sim.Time <= 0 || sim.Energy <= 0 {
			t.Errorf("%v: sim.step attribution = %+v", mode, sim)
		}
		if viz := res.PhaseEnergy.Phase("viz.sample"); viz.Time <= 0 {
			t.Errorf("%v: viz.sample attribution = %+v", mode, viz)
		}
	}
}

func TestLiveRunTraceLanes(t *testing.T) {
	res, _ := tracedLiveRun(t, PostProcessing)
	drv := res.Timeline.Lane("driver")
	if drv == nil {
		t.Fatal("no driver lane")
	}
	counts := map[string]int{}
	depth1 := map[string]bool{}
	for _, s := range drv.Spans {
		counts[s.Name]++
		if s.Depth > 0 {
			depth1[s.Name] = true
		}
		if s.Open {
			t.Errorf("span %q left open", s.Name)
		}
	}
	if counts["sim.step"] != 24 {
		t.Errorf("sim.step spans = %d, want 24", counts["sim.step"])
	}
	if counts["viz.sample"] != 3 || counts["io.dump"] != 3 || counts["io.read"] != 3 {
		t.Errorf("span counts = %v", counts)
	}
	// Hierarchy: the render and detect sub-phases nest inside viz.sample.
	if !depth1["viz.render"] || !depth1["viz.detect"] {
		t.Errorf("nested sub-spans missing: %v", depth1)
	}
	// One lane per rendering rank, each with one span per sample.
	for _, lane := range []string{"render.rank0", "render.rank1", "render.rank2"} {
		lt := res.Timeline.Lane(lane)
		if lt == nil || len(lt.Spans) != 3 {
			t.Errorf("lane %s = %+v", lane, lt)
		}
	}
}

// TestLiveRunTraceDrainSpan: the final drain of in-flight samples is one
// driver-lane "viz.drain" span between the last solver step and the index
// commit, so its encode and write are charged to a named phase.
func TestLiveRunTraceDrainSpan(t *testing.T) {
	res, _ := tracedLiveRun(t, InSitu)
	drv := res.Timeline.Lane("driver")
	if drv == nil {
		t.Fatal("no driver lane")
	}
	var drains []trace.Span
	var lastStep, commit trace.Span
	for _, s := range drv.Spans {
		switch s.Name {
		case "viz.drain":
			drains = append(drains, s)
		case "sim.step":
			lastStep = s
		case "io.commit":
			commit = s
		}
	}
	if len(drains) != 1 {
		t.Fatalf("viz.drain spans = %d, want 1", len(drains))
	}
	d := drains[0]
	if lastStep.Name == "" || commit.Name == "" {
		t.Fatalf("missing spans: last sim.step %+v, io.commit %+v", lastStep, commit)
	}
	if d.Start < lastStep.End || d.End > commit.Start {
		t.Errorf("viz.drain [%v, %v] not between last sim.step end %v and io.commit start %v",
			d.Start, d.End, lastStep.End, commit.Start)
	}
	found := false
	for _, p := range res.PhaseEnergy.Phases {
		found = found || p.Phase == "viz.drain"
	}
	if !found {
		t.Errorf("no viz.drain row in PhaseEnergy: %+v", res.PhaseEnergy.Phases)
	}
}

// TestLiveRunTraceDeriveSpan: each sample's diagnostics and Okubo-Weiss
// evaluation is one driver-lane "sim.derive" span, right after the
// sample's last "sim.step" and right before its "viz.sample" (in situ) or
// "io.dump" (post-processing), so its energy is charged to a named phase
// instead of the unattributed gaps.
func TestLiveRunTraceDeriveSpan(t *testing.T) {
	for mode, next := range map[Kind]string{InSitu: "viz.sample", PostProcessing: "io.dump"} {
		res, _ := tracedLiveRun(t, mode)
		drv := res.Timeline.Lane("driver")
		if drv == nil {
			t.Fatalf("%v: no driver lane", mode)
		}
		var top []trace.Span
		for _, s := range drv.Spans {
			if s.Depth == 0 {
				top = append(top, s)
			}
		}
		derives := 0
		for i, s := range top {
			if s.Name != "sim.derive" {
				continue
			}
			derives++
			if i == 0 || top[i-1].Name != "sim.step" || top[i-1].End > s.Start {
				t.Errorf("%v: sim.derive #%d does not follow a sim.step", mode, derives)
			}
			if i+1 == len(top) || top[i+1].Name != next || top[i+1].Start < s.End {
				t.Errorf("%v: sim.derive #%d is not followed by %s", mode, derives, next)
			}
		}
		if derives != 3 {
			t.Errorf("%v: sim.derive spans = %d, want one per sample (3)", mode, derives)
		}
		if p := res.PhaseEnergy.Phase("sim.derive"); p.Time <= 0 || p.Energy <= 0 {
			t.Errorf("%v: sim.derive attribution = %+v", mode, p)
		}
	}
}

func TestLiveRunTraceChromeExport(t *testing.T) {
	res, _ := tracedLiveRun(t, InSitu)
	var buf bytes.Buffer
	err := trace.WriteChrome(&buf, res.Timeline,
		trace.CounterTrack{Name: "node-model power", Profile: res.PowerProfile})
	if err != nil {
		t.Fatal(err)
	}
	events, counters, err := trace.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no events exported")
	}
	if counters != len(res.PowerProfile.Powers)+1 {
		t.Errorf("counter events = %d, want %d", counters, len(res.PowerProfile.Powers)+1)
	}
}

// TestLiveRunExternalRegistry: a caller-supplied registry receives the
// run's metrics (the -http wiring), and the snapshot still lands on the
// result.
func TestLiveRunExternalRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := LiveRun(LiveConfig{
		Mode:             InSitu,
		MeshSubdivisions: 2,
		Steps:            8,
		SampleEverySteps: 8,
		OutputDir:        t.TempDir(),
		ImageWidth:       64,
		ImageHeight:      32,
		RenderRanks:      2,
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ocean.steps").Value(); got != 8 {
		t.Errorf("external registry ocean.steps = %d, want 8", got)
	}
	if res.Telemetry.Counters["ocean.steps"] != 8 {
		t.Errorf("result snapshot ocean.steps = %d", res.Telemetry.Counters["ocean.steps"])
	}
	// No tracer: the trace-side results stay nil.
	if res.Timeline != nil || res.PhaseEnergy != nil || res.PowerProfile != nil {
		t.Error("untraced run produced trace results")
	}
}
