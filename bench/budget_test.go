package main

import (
	"strings"
	"testing"
)

func TestCoverageArithmetic(t *testing.T) {
	rows := []budgetRow{
		{"ocean.step", 150, 0.005}, // 0.75 s
		{"mesh.build", 1, 0.1},     // 0.10 s
		{"render.png", 2, 0.0005},  // 0.001 s
	}
	if got := rows[0].totalS(); !near(got, 0.75) {
		t.Errorf("total = %v, want 0.75", got)
	}
	if got := coverage(rows, 1.0); !near(got, 0.851) {
		t.Errorf("coverage = %v, want 0.851", got)
	}
	if got := coverage(rows, 0); got != 0 {
		t.Errorf("coverage over a zero wall = %v, want 0", got)
	}
	table := formatBudget("live_sim", rows, 1.0)
	for _, want := range []string{"ocean.step", "150", "75.0%", "budget.coverage", "85.1%"} {
		if !strings.Contains(table, want) {
			t.Errorf("budget table lacks %q:\n%s", want, table)
		}
	}
}

func TestLiveRowsFollowTheWorkloadShape(t *testing.T) {
	v := map[string]float64{}
	calls := func(lw *liveWorkload) map[string]int {
		m := map[string]int{}
		for _, row := range liveRows(lw, v) {
			m[row.stem] = row.calls
		}
		return m
	}
	viz := calls(liveWorkloads["live_viz"])
	for stem, want := range map[string]int{
		"ocean.step": 48, "ocean.diag": 48, "render.raster": 48, "render.ortho": 48,
		"vizpipe.threshold": 48, "render.png": 48, "cinemastore.put": 288, "cinemastore.commit": 1, "mesh.build": 1,
	} {
		if viz[stem] != want {
			t.Errorf("live_viz %s: %d calls, want %d", stem, viz[stem], want)
		}
	}
	for _, stem := range []string{"ncfile.encode", "pio.gather", "intransit.send_sample"} {
		if _, ok := viz[stem]; ok {
			t.Errorf("live_viz budget has a row for %s, a layer it never runs", stem)
		}
	}
	sim := calls(liveWorkloads["live_sim"])
	if sim["ocean.step"] != 150 || sim["render.raster"] != 2 || sim["cinemastore.put"] != 2 {
		t.Errorf("live_sim rows: %v", sim)
	}
	if _, ok := sim["render.ortho"]; ok {
		t.Error("live_sim renders no ortho views")
	}
	post := calls(liveWorkloads["live_post"])
	if post["ncfile.encode"] != 60 || post["ncfile.decode"] != 60 || post["pio.gather"] != 60 {
		t.Errorf("live_post rows: %v", post)
	}
	if _, ok := post["catalyst.coprocess"]; ok {
		t.Error("post-processing does not go through the catalyst adaptor")
	}
	tcp := calls(liveWorkloads["transit_tcp"])
	if tcp["intransit.send_sample"] != 48 {
		t.Errorf("transit_tcp rows: %v", tcp)
	}
	if _, ok := tcp["render.png"]; ok {
		t.Error("under the tcp transport the sim does not encode frames")
	}
}
