package main

import (
	"fmt"
	"strings"
)

// budgetRow is one layer's share of a live workload: how often the
// workload's shape calls it and what the probe says one call costs.
type budgetRow struct {
	stem     string
	calls    int
	perCallS float64
}

func (b budgetRow) totalS() float64 { return float64(b.calls) * b.perCallS }

// Coverage outside this band on a workload whose every layer is probed means the probes are
// missing a layer (or double-counting one). It may exceed 1 because the
// PNG encode overlaps the next frame's raster.
const (
	coverageMin = 0.6
	coverageMax = 1.5
)

// coverage is the sum of the layer totals as a share of the wall time.
func coverage(rows []budgetRow, wallS float64) float64 {
	if wallS <= 0 {
		return 0
	}
	sum := 0.0
	for _, row := range rows {
		sum += row.totalS()
	}
	return sum / wallS
}

func formatBudget(name string, rows []budgetRow, wallS float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "budget %s: run_wall_s %.4f\n", name, wallS)
	fmt.Fprintf(&sb, "  %-24s %8s %12s %10s %7s\n", "layer", "calls", "ms/call", "total ms", "share")
	for _, row := range rows {
		fmt.Fprintf(&sb, "  %-24s %8d %12.4f %10.2f %6.1f%%\n",
			row.stem, row.calls, row.perCallS*1e3, row.totalS()*1e3, 100*row.totalS()/wallS)
	}
	fmt.Fprintf(&sb, "  %-24s %8s %12s %10s %6.1f%%\n", "budget.coverage", "", "", "", 100*coverage(rows, wallS))
	return sb.String()
}

// liveRows multiplies each probed layer by the call count the workload's
// shape implies. Render, encode and Put move to the workers under the tcp
// transport, where the sim pays SendSample instead.
func liveRows(lw *liveWorkload, v map[string]float64) []budgetRow {
	n, frames := lw.samples(), lw.samples()*lw.framesPerSample()
	rows := []budgetRow{
		{"mesh.build", 1, v["mesh.build_ms"] / 1e3},
		{"partition.new", 1, v["partition.new_ms"] / 1e3},
		{"ocean.step", lw.steps, v["ocean.step_ms"] / 1e3},
		{"ocean.diag", n, v["ocean.diag_ms"] / 1e3},
	}
	add := func(on bool, stem string, calls int, perCallS float64) {
		if on {
			rows = append(rows, budgetRow{stem, calls, perCallS})
		}
	}
	tcp := lw.transitWkr > 0
	add(lw.mode == "insitu", "catalyst.coprocess", n, v["catalyst.coprocess_us"]/1e6)
	add(lw.mode == "post", "pio.gather", n, v["pio.gather_us"]/1e6)
	add(lw.mode == "post", "ncfile.encode", n, v["ncfile.encode_ms"]/1e3)
	add(lw.mode == "post", "ncfile.decode", n, v["ncfile.decode_ms"]/1e3)
	add(tcp, "intransit.send_sample", n, v["intransit.send_sample_ms"]/1e3)
	add(!tcp, "render.raster", n, v["render.raster_ms"]/1e3)
	add(!tcp, "render.composite", n, v["render.composite_ms"]/1e3)
	add(!tcp && lw.ortho > 0, "render.ortho", n, v["render.ortho_ms"]/1e3)
	add(!tcp && lw.cores, "vizpipe.threshold", n, v["vizpipe.threshold_us"]/1e6)
	add(!tcp, "render.png", n, v["render.png_ms"]/1e3)
	add(!tcp, "cinemastore.put", frames, v["cinemastore.put_us"]/1e6)
	add(true, "eddy.detect", n, v["eddy.detect_us"]/1e6)
	add(true, "eddy.track", n, v["eddy.track_us"]/1e6)
	add(true, "cinemastore.commit", 1, v["cinemastore.commit_ms"]/1e3)
	return rows
}

// liveBudget prints the budget table and cross-checks the call counts it
// assumed against the counters the program itself reported for the run.
func (r *run) liveBudget(lw *liveWorkload, wallS float64, counters map[string]int64) {
	rows := liveRows(lw, r.values)
	cov := coverage(rows, wallS)
	r.values["budget.coverage"] = cov
	fmt.Print(formatBudget(r.name, rows, wallS))
	warn := func(format string, args ...any) { r.warn("budget: "+format, args...) }
	if got := int(counters["ocean.steps"]); got != lw.steps {
		warn("assumed %d solver steps, the run counted %d", lw.steps, got)
	}
	frames, counter := lw.samples()*lw.framesPerSample(), "render.frames"
	if lw.transitWkr > 0 {
		frames, counter = lw.samples(), "transit.samples"
	}
	if got := int(counters[counter]); got != frames {
		warn("assumed %d for %s, the run counted %d", frames, counter, got)
	}
	if lw.checkCoverage && (cov < coverageMin || cov > coverageMax) {
		warn("coverage %.2f is outside %.1f-%.1f: the probes are missing a layer", cov, coverageMin, coverageMax)
	}
}
