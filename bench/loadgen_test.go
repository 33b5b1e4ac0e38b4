package main

import (
	"strings"
	"testing"
	"time"
)

// A sender that stalls must not hide the stall: requests that fell due
// while every client was stuck are timed from when they were due, so they
// carry the time they waited to be sent.
func TestPacedChargesStallToLaterRequests(t *testing.T) {
	const (
		rate  = 1000.0 // one request per millisecond
		n     = 60
		stall = 30 * time.Millisecond
	)
	res := runPaced(rate, n, 1, func(_, k int) {
		if k == 5 {
			time.Sleep(stall)
		}
	})
	if got := res.latency[5]; got < stall.Seconds() {
		t.Fatalf("stalled request latency %.4fs, want at least %v", got, stall)
	}
	// Request 15 was due 10 ms after request 5 and the single client was
	// stuck for 30 ms: it waited about 20 ms before it could even be sent.
	if late := res.late[15]; late < 0.015 {
		t.Errorf("request 15 started %.4fs late, want about 0.020s", late)
	}
	if lat := res.latency[15]; lat < 0.015 {
		t.Errorf("request 15 latency %.4fs omits the time it waited behind the stall", lat)
	}
	// Requests before the stall were sent on time and cost nothing.
	if lat := res.latency[2]; lat > 0.010 {
		t.Errorf("request 2 latency %.4fs, want well under 10 ms", lat)
	}
	// Once the backlog drains the generator is on schedule again.
	if late := res.late[n-1]; late > 0.010 {
		t.Errorf("last request started %.4fs late: the backlog never drained", late)
	}
}

func TestPacedKeepsItsRate(t *testing.T) {
	const rate, n = 2000.0, 200
	t0 := time.Now()
	res := runPaced(rate, n, 2, func(_, _ int) {})
	elapsed := time.Since(t0).Seconds()
	if want := (n - 1) / rate; elapsed < want {
		t.Errorf("sent %d requests in %.4fs, faster than the schedule's %.4fs", n, elapsed, want)
	}
	if len(res.latency) != n || len(res.late) != n {
		t.Fatalf("got %d latencies and %d lateness samples, want %d", len(res.latency), len(res.late), n)
	}
}

const metricsDoc = `counter serve.cache.hits 120
counter serve.cache.misses 30
gauge serve.cache.used.bytes 8388608
fgauge transit.compression.ratio 0.167875
histogram serve.latency.ns count 150 sum 1.5e+07
histogram serve.latency.ns le 1000 0
histogram serve.latency.ns le +Inf 3
histogram serve.latency.ns p50 64000.5
histogram serve.latency.ns p99 707683
span live.sample.time entries 48 sampled 48 sampled_ns 901381252 estimated_ns 901381252
counter node0.serve.cache.hits 7
counter node1.serve.cache.hits 5
histogram node1.serve.latency.ns p99 900000
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(metricsDoc))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"serve.cache.hits":              120,
		"serve.cache.used.bytes":        8388608,
		"transit.compression.ratio":     0.167875,
		"serve.latency.ns.count":        150,
		"serve.latency.ns.sum":          1.5e7,
		"serve.latency.ns.p50":          64000.5,
		"serve.latency.ns.p99":          707683,
		"live.sample.time.entries":      48,
		"live.sample.time.estimated_ns": 901381252,
		"node1.serve.cache.hits":        5,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if _, ok := m["serve.latency.ns.le"]; ok {
		t.Error("bucket lines must be skipped")
	}
	// One node exposes serve.*, a gateway's union node<i>.serve.*.
	if got := sumSuffix(m, "serve.cache.hits"); got != 132 {
		t.Errorf("sumSuffix = %v, want 120+7+5", got)
	}
	if got := maxSuffix(m, "serve.latency.ns.p99"); got != 900000 {
		t.Errorf("maxSuffix = %v, want 900000", got)
	}
	for _, bad := range []string{"counter x", "counter x notanumber", "widget x 1", "histogram h count"} {
		if _, err := parseMetrics(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

func TestZipfSequenceIsSeeded(t *testing.T) {
	a, b, c := zipfSequence(1, 1024, 5000), zipfSequence(1, 1024, 5000), zipfSequence(2, 1024, 5000)
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different request sequences")
	}
	if same(a, c) {
		t.Error("different seeds gave the same request sequence")
	}
	counts := map[int]int{}
	for _, k := range a {
		if k < 0 || k >= 1024 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	top := 0
	for _, n := range counts {
		if n > top {
			top = n
		}
	}
	if top < len(a)/20 {
		t.Errorf("hottest key has %d of %d requests: not a skewed sequence", top, len(a))
	}
}
