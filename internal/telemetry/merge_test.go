package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestSnapshotMergePrefixesEveryKind(t *testing.T) {
	live := NewRegistry()
	live.Counter("render.frames").Add(3)
	live.Gauge("workpool.workers").Set(4)
	live.Histogram("frame.bytes", []float64{10, 100}).Observe(42)

	serve := NewRegistry()
	serve.Counter("cache.hits").Add(7)
	serve.Gauge("cache.used.bytes").Set(512)
	serve.FloatGauge("compression.ratio").Set(0.25)
	serve.Histogram("latency.ns", []float64{1e3, 1e6}).Observe(5e5)

	snap := live.Snapshot()
	if err := snap.Merge("serve.", serve.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.cache.hits"] != 7 {
		t.Errorf("merged counter = %d", snap.Counters["serve.cache.hits"])
	}
	if snap.Gauges["serve.cache.used.bytes"] != 512 {
		t.Errorf("merged gauge = %d", snap.Gauges["serve.cache.used.bytes"])
	}
	if snap.FloatGauges["serve.compression.ratio"] != 0.25 {
		t.Errorf("merged float gauge = %g", snap.FloatGauges["serve.compression.ratio"])
	}
	if hv, ok := snap.Histograms["serve.latency.ns"]; !ok || hv.Count != 1 {
		t.Errorf("merged histogram = %+v ok=%v", hv, ok)
	}
	// Original names stay put.
	if snap.Counters["render.frames"] != 3 {
		t.Errorf("live counter disturbed: %d", snap.Counters["render.frames"])
	}
}

func TestSnapshotMergeDetectsCollisions(t *testing.T) {
	a := NewRegistry()
	a.Counter("cache.hits").Inc()
	b := NewRegistry()
	b.Counter("hits").Inc()

	snap := a.Snapshot()
	if err := snap.Merge("cache.", b.Snapshot()); err == nil {
		t.Fatal("same-kind collision not detected")
	}
	// The failed merge must not have applied anything.
	if snap.Counters["cache.hits"] != 1 {
		t.Errorf("failed merge modified destination: %d", snap.Counters["cache.hits"])
	}

	// Cross-kind collisions are collisions too.
	g := NewRegistry()
	g.Gauge("hits").Set(9)
	if err := snap.Merge("cache.", g.Snapshot()); err == nil {
		t.Error("gauge-versus-counter collision not detected")
	}
	f := NewRegistry()
	f.FloatGauge("hits").Set(0.5)
	if err := snap.Merge("cache.", f.Snapshot()); err == nil {
		t.Error("fgauge-versus-counter collision not detected")
	}

	if err := snap.Merge("other.", b.Snapshot()); err != nil {
		t.Errorf("distinct prefix still collided: %v", err)
	}
}

func TestUnionSnapshotIsLiveAndByteStable(t *testing.T) {
	live := NewRegistry()
	serve := NewRegistry()
	u := NewUnion().Add("", live).Add("serve.", serve)

	live.Counter("ocean.steps").Add(10)
	serve.Counter("cache.hits").Add(1)
	first := u.Snapshot()
	if first.Counters["ocean.steps"] != 10 || first.Counters["serve.cache.hits"] != 1 {
		t.Fatalf("union snapshot = %+v", first.Counters)
	}

	// The union scrapes live: later updates appear in later snapshots.
	serve.Counter("cache.hits").Add(4)
	second := u.Snapshot()
	if second.Counters["serve.cache.hits"] != 5 {
		t.Errorf("union is not live: %d", second.Counters["serve.cache.hits"])
	}

	// Byte-stable exposition: a union built in the opposite order renders
	// the identical text document for equal values.
	u2 := NewUnion().Add("serve.", serve).Add("", live)
	var b1, b2 bytes.Buffer
	if err := u.Snapshot().WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := u2.Snapshot().WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("union exposition depends on Add order:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if !strings.Contains(b1.String(), "counter serve.cache.hits 5\n") {
		t.Errorf("exposition missing namespaced counter:\n%s", b1.String())
	}
}

func TestUnionCollisionPanics(t *testing.T) {
	a := NewRegistry()
	a.Counter("x").Inc()
	b := NewRegistry()
	b.Counter("x").Inc()
	u := NewUnion().Add("", a).Add("", b)
	defer func() {
		if recover() == nil {
			t.Error("union collision did not panic")
		}
	}()
	u.Snapshot()
}

func TestUnionNilSafety(t *testing.T) {
	if s := (*Union)(nil).Snapshot(); s == nil || len(s.Counters) != 0 {
		t.Errorf("nil union snapshot = %+v", s)
	}
	u := NewUnion().Add("x.", nil) // ignored
	if s := u.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil source contributed metrics: %+v", s.Counters)
	}
}
