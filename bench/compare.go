package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(resultFile)
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// comparable refuses two files that were not measured under the same
// conditions instead of diffing them as if they were.
func comparable(a, b *resultFile) error {
	switch {
	case a.Env.NumCPU != b.Env.NumCPU:
		return fmt.Errorf("not comparable: %d vs %d CPUs", a.Env.NumCPU, b.Env.NumCPU)
	case a.Env.CPUModel != b.Env.CPUModel:
		return fmt.Errorf("not comparable: CPU model %q vs %q", a.Env.CPUModel, b.Env.CPUModel)
	case a.Seed != b.Seed:
		return fmt.Errorf("not comparable: seed %d vs %d", a.Seed, b.Seed)
	}
	return nil
}

// samples collects one metric's values over the file's runs of a workload.
func (f *resultFile) samples(workload, metric string, traced bool) []float64 {
	var xs []float64
	for _, run := range f.Runs {
		if v, ok := run.Metrics[metric]; ok && run.Workload == workload && run.Trace == traced {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b (the change) against a (the base). worseBy is the
// share of a's median by which b's median is worse (negative: better).
// When a's own spread is wider than the bound the medians cannot settle
// it: the row is unresolved unless the two sets do not interleave at all.
func judge(a, b []float64, d metricDef) (worseBy float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worseBy = (mb - ma) / ma
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter, allWorse := sb[len(sb)-1] < sa[0], sb[0] > sa[len(sa)-1]
	if d.Better == higher {
		worseBy = -worseBy
		allBetter, allWorse = allWorse, allBetter
	}
	switch {
	case spread(a) > d.Bound && !allBetter && !(allWorse && worseBy > d.Bound):
		return worseBy, verdictUnresolved
	case worseBy > d.Bound:
		return worseBy, verdictWorse
	}
	return worseBy, verdictOK
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether no row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if err := comparable(a, b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base %s (%s)\nnew  %s (%s)\n", pathA, a.Env.GitCommit, pathB, b.Env.GitCommit)
	fmt.Fprintf(w, "%-14s %-24s %11s %23s %11s %23s %16s %6s  %s\n",
		"workload", "metric", "base median", "base q1..q3", "new median", "new q1..q3", "new/base", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloadDefs {
		for _, d := range endToEndDefs {
			xa, xb := a.samples(wl.Name, d.Name, false), b.samples(wl.Name, d.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, verdict := judge(xa, xb, d)
			counts[verdict]++
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			fmt.Fprintf(w, "%-14s %-24s %11.5g %23s %11.5g %23s %16s %5.0f%%  %s\n", wl.Name, d.Name,
				median(xa), fmt.Sprintf("%.5g..%.5g", qa1, qa3), median(xb), fmt.Sprintf("%.5g..%.5g", qb1, qb3),
				ratio(median(xb), median(xa)), 100*d.Bound, verdict)
		}
	}
	// Per-layer metrics carry no bound and get no verdict; they are listed
	// so a moved end-to-end number can be traced to its layer.
	for _, wl := range workloadDefs {
		for _, d := range perLayerDefs {
			xa, xb := a.samples(wl.Name, d.Name, true), b.samples(wl.Name, d.Name, true)
			if len(xa) == 0 || len(xb) == 0 || (median(xa) == 0 && median(xb) == 0) {
				continue
			}
			fmt.Fprintf(w, "%-14s %-24s %11.5g %23s %11.5g %23s %16s\n", wl.Name, d.Name,
				median(xa), "", median(xb), "", ratio(median(xb), median(xa)))
		}
	}
	fmt.Fprintf(w, "%s: %d  %s: %d  %s: %d\n", verdictOK, counts[verdictOK],
		verdictWorse, counts[verdictWorse], verdictUnresolved, counts[verdictUnresolved])
	return counts[verdictWorse] == 0, nil
}

// ratio renders new/base with its base, as "1.034 of 0.8127".
func ratio(newV, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f of %.4g", newV/base, base)
}
