package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.count")
	c2 := r.Counter("a.count")
	if c1 != c2 {
		t.Fatal("second Counter lookup returned a different handle")
	}
	g1 := r.Gauge("a.gauge")
	if g1 != r.Gauge("a.gauge") {
		t.Fatal("second Gauge lookup returned a different handle")
	}
	h1 := r.Histogram("a.hist", []float64{1, 2})
	if h1 != r.Histogram("a.hist", []float64{99}) {
		t.Fatal("second Histogram lookup returned a different handle")
	}
}

func TestRegistryCrossKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering gauge over counter name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// All hot-path methods must be no-ops, not panics.
	c.Inc()
	c.Add(5)
	g.Set(7)
	g.SetMax(9)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestConcurrentIncrements exercises every metric kind from many
// goroutines; run under -race this is the registry's thread-safety proof,
// and the totals prove no increment is lost.
func TestConcurrentIncrements(t *testing.T) {
	const goroutines = 8
	const perG = 2000
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Lookups race with lookups of the same names on purpose.
			c := r.Counter("shared.count")
			g := r.Gauge("shared.highwater")
			h := r.Histogram("shared.hist", []float64{0.5, 1.5})
			for j := 0; j < perG; j++ {
				c.Inc()
				g.SetMax(int64(id*perG + j))
				h.Observe(1)
			}
		}(i)
	}
	wg.Wait()

	if got := r.Counter("shared.count").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("shared.highwater").Value(); got != goroutines*perG-1 {
		t.Errorf("high-water gauge = %d, want %d", got, goroutines*perG-1)
	}
	h := r.Histogram("shared.hist", nil)
	if n := h.count.Load(); n != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", n, goroutines*perG)
	}
	if h.Sum() != goroutines*perG {
		t.Errorf("histogram sum = %g, want %d", h.Sum(), goroutines*perG)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h, err := newHistogram([]float64{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	// Upper bounds are inclusive: 1 lands in the first bucket, 1.0001 in
	// the second, and anything above the last bound overflows to +Inf.
	for _, v := range []float64{-5, 0.5, 1} {
		h.Observe(v)
	}
	for _, v := range []float64{1.0001, 10} {
		h.Observe(v)
	}
	h.Observe(100)
	for _, v := range []float64{100.5, 1e9, math.Inf(1)} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped

	hv := h.value()
	wantCounts := []int64{3, 2, 1, 3}
	for i, want := range wantCounts {
		if hv.Buckets[i].Count != want {
			t.Errorf("bucket %d (le %g): count %d, want %d",
				i, hv.Buckets[i].UpperBound, hv.Buckets[i].Count, want)
		}
	}
	if hv.Count != 9 {
		t.Errorf("total count %d, want 9 (NaN must be dropped)", hv.Count)
	}
	if !math.IsInf(hv.Buckets[3].UpperBound, 1) {
		t.Errorf("last bucket bound = %g, want +Inf", hv.Buckets[3].UpperBound)
	}
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	for _, bounds := range [][]float64{
		nil,
		{},
		{2, 1},
		{1, 1},
		{1, math.NaN()},
		{1, math.Inf(1)},
	} {
		if _, err := newHistogram(bounds); err == nil {
			t.Errorf("bounds %v accepted, want error", bounds)
		}
	}
}

// TestExpositionDeterministicOrder builds two registries registering the
// same metrics in opposite orders and requires byte-identical text and
// JSON renderings — the stable-key-order contract the CLIs and CI diffs
// rely on.
func TestExpositionDeterministicOrder(t *testing.T) {
	build := func(names []string) *Snapshot {
		r := NewRegistry()
		// Values depend on the name, not the registration index, so both
		// registration orders hold identical data.
		for _, n := range names {
			r.Counter("count." + n).Add(int64(len(n)))
			r.Gauge("gauge." + n).Set(int64(10 * len(n)))
			r.Histogram("hist."+n, []float64{1, 2}).Observe(1.5)
		}
		return r.Snapshot()
	}
	names := []string{"alpha", "beta", "gamma", "delta"}
	reversed := []string{"delta", "gamma", "beta", "alpha"}
	a := build(names)
	b := build(reversed)

	var ta, tb bytes.Buffer
	if err := a.WriteText(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Errorf("text exposition depends on registration order:\n%s\nvs\n%s", ta.String(), tb.String())
	}
	if !strings.Contains(ta.String(), "counter count.alpha 5\n") {
		t.Errorf("unexpected text exposition:\n%s", ta.String())
	}
	// Lines must be sorted within each kind.
	lines := strings.Split(strings.TrimSpace(ta.String()), "\n")
	var prevKind, prevName string
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) < 3 {
			t.Fatalf("malformed line %q", ln)
		}
		if fields[0] == prevKind && fields[1] < prevName {
			t.Errorf("names out of order: %q after %q", fields[1], prevName)
		}
		prevKind, prevName = fields[0], fields[1]
	}

	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Errorf("JSON exposition depends on registration order")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Histogram("h", []float64{1, 2}).Observe(0.5)
	r.Histogram("h", nil).Observe(99) // overflow bucket
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v\n%s", err, buf.String())
	}
	if back.Counters["c"] != 3 {
		t.Errorf("counter c = %d after round trip, want 3", back.Counters["c"])
	}
	hv := back.Histograms["h"]
	if hv.Count != 2 || len(hv.Buckets) != 3 {
		t.Fatalf("histogram h = %+v after round trip", hv)
	}
	if !math.IsInf(hv.Buckets[2].UpperBound, 1) || hv.Buckets[2].Count != 1 {
		t.Errorf("overflow bucket = %+v, want +Inf bound with count 1", hv.Buckets[2])
	}
}

// TestHotPathAllocs is the telemetry half of the repository's
// 0 allocs/op budget: every hot-path operation — counter add, gauge set,
// high-water update, float gauge set, histogram observe — must not
// allocate.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	f := r.FloatGauge("f")
	h := r.Histogram("h", []float64{1, 10, 100, 1000})
	var x int64
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(x)
		g.SetMax(x + 1)
		f.Set(float64(x) / 3)
		h.Observe(float64(x % 2000))
		x++
	})
	if allocs != 0 {
		t.Errorf("hot path allocates %.1f objects per run, want 0", allocs)
	}
}
