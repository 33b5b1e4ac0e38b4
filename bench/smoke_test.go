package main

import (
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end at about 1/20 size: the real
// binaries are built and started, every check runs, every probe is called.
// It proves the paths work, not that the numbers are steady.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries under test")
	}
	b, err := newBench("..")
	if err != nil {
		t.Fatal(err)
	}
	b.size = smokeSize
	b.workTop = t.TempDir()
	defer b.cleanup()

	for _, w := range workloadDefs {
		res := b.runWorkload(w.Name, 1, 0.2, true)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range perLayerDefs {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: traced run did not report %s", w.Name, d.Name)
			}
		}
		positive := []string{"cinemaserve.hit_ns", "cinemastore.read_verify_us", "serve.req_per_s", "serve.p50_us"}
		if liveWorkloads[w.Name] != nil {
			positive = []string{"ocean.step_ms", "ocean.steps", "render.frames", "live.stored_bytes", "budget.coverage", "cinemastore.put_us"}
		}
		for _, name := range positive {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, name, res.Metrics[name].Value)
			}
		}
		// A layer the workload never runs reports 0.
		for name, v := range res.Metrics {
			layer, _, _ := strings.Cut(name, ".")
			switch {
			case (layer == "ncfile" || layer == "pio") && w.Name != "live_post",
				layer == "intransit" && w.Name != "transit_tcp",
				layer == "cinemacluster" && w.Name != "cluster_churn":
				if v.Value != 0 {
					t.Errorf("%s: %s = %v outside the workload that runs that layer", w.Name, name, v.Value)
				}
			}
		}
	}
	for _, name := range []string{"live_viz", "serve_churn"} {
		res := b.runWorkload(name, 2, 0.2, false)
		if !res.Correct {
			t.Errorf("%s untraced: not correct", name)
		}
		for _, d := range endToEndDefs {
			if res.Metrics[d.Name].Value <= 0 || len(res.Metrics) != len(endToEndDefs) {
				t.Errorf("%s untraced: %s = %v among %d metrics", name, d.Name, res.Metrics[d.Name].Value, len(res.Metrics))
			}
		}
	}
	if left := b.procs.survivors(); len(left) > 0 {
		t.Errorf("children survived: %v", left)
	}
}
