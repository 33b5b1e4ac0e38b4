package lustre

import (
	"math"
	"testing"

	"insituviz/internal/telemetry"
	"insituviz/internal/units"
)

func newRack(t testing.TB) *Cluster {
	t.Helper()
	c, err := New(CaddyStorage())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// read streams a stored file at the rack bandwidth.
func (c *Cluster) read(name string, start units.Seconds) (units.Seconds, error) {
	return c.ReadAt(name, start, c.cfg.Bandwidth)
}

// activity is the rack's lifetime transfer activity as its telemetry
// counts it.
type activity struct{ written, read, files, metaOps int64 }

func activityOf(reg *telemetry.Registry) activity {
	return activity{
		written: reg.Counter("lustre.written.bytes").Value(),
		read:    reg.Counter("lustre.read.bytes").Value(),
		files:   reg.Counter("lustre.files.created").Value(),
		metaOps: reg.Counter("lustre.metadata.ops").Value(),
	}
}

func TestNewValidation(t *testing.T) {
	bad := CaddyStorage()
	bad.Capacity = 0
	if _, err := New(bad); err == nil {
		t.Error("zero capacity accepted")
	}
	bad = CaddyStorage()
	bad.Bandwidth = 0
	if _, err := New(bad); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = CaddyStorage()
	bad.BusyPower = bad.IdlePower - 1
	if _, err := New(bad); err == nil {
		t.Error("busy < idle accepted")
	}
	bad = CaddyStorage()
	bad.MDSCount = 0
	if _, err := New(bad); err == nil {
		t.Error("zero MDS accepted")
	}
	// Stripe count clamps.
	cfg := CaddyStorage()
	cfg.StripeCount = 99
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().StripeCount != cfg.OSSCount {
		t.Errorf("stripe count = %d, want clamped to %d", c.Config().StripeCount, cfg.OSSCount)
	}
	cfg.StripeCount = 0
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().StripeCount != 1 {
		t.Errorf("stripe count = %d, want 1", c.Config().StripeCount)
	}
}

func TestCaddyStorageMatchesPaper(t *testing.T) {
	cfg := CaddyStorage()
	if cfg.Capacity != units.Terabytes(7.7) {
		t.Errorf("capacity = %v", cfg.Capacity)
	}
	if cfg.Bandwidth != units.MegabytesPerSecond(160) {
		t.Errorf("bandwidth = %v", cfg.Bandwidth)
	}
	if cfg.IdlePower != 2273 || cfg.BusyPower != 2302 {
		t.Errorf("power = [%v, %v]", cfg.IdlePower, cfg.BusyPower)
	}
	c, _ := New(cfg)
	// The paper reports a 1.3% dynamic range.
	if pp := c.PowerProportionality(); math.Abs(pp-0.01276) > 0.001 {
		t.Errorf("power proportionality = %v, want ~1.3%%", pp)
	}
}

func TestWriteReadTiming(t *testing.T) {
	c := newRack(t)
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	// 1 GB at 160 MB/s = 6.25 s — the physical basis of alpha.
	end, err := c.Write("dump.nc", 1*units.GB, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(end)-106.25) > 1e-9 {
		t.Errorf("write completes at %v, want 106.25", end)
	}
	rend, err := c.read("dump.nc", 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rend)-206.25) > 1e-9 {
		t.Errorf("read completes at %v, want 206.25", rend)
	}
	if got := activityOf(reg); got != (activity{written: int64(units.GB), read: int64(units.GB), files: 1, metaOps: 2}) {
		t.Errorf("activity = %+v", got)
	}
	if f, ok := c.files["dump.nc"]; !ok || f.size != 1*units.GB || len(c.files) != 1 {
		t.Errorf("files = %v", c.files)
	}
}

func TestWriteValidation(t *testing.T) {
	c := newRack(t)
	if _, err := c.Write("", 1, 0); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.Write("x", -1, 0); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := c.Write("x", 1, -1); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := c.Write("x", 1*units.GB, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("x", 1, 10); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := c.read("missing", 0); err == nil {
		t.Error("read of missing file accepted")
	}
	if _, err := c.read("x", -1); err == nil {
		t.Error("negative read start accepted")
	}
}

func TestCapacityEnforced(t *testing.T) {
	c := newRack(t)
	if _, err := c.Write("big", units.Terabytes(7), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("overflow", units.Terabytes(1), 100); err == nil {
		t.Error("overflow accepted")
	}
	if c.Free() != units.Terabytes(0.7) {
		t.Errorf("Free = %v", c.Free())
	}
}

func TestStripingBalancesOSS(t *testing.T) {
	cfg := CaddyStorage()
	cfg.OSSCount = 4
	cfg.StripeCount = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		if _, err := c.Write(name, 100*units.GB, units.Seconds(float64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	// 8 files x 100 GB striped 2-wide across 4 OSS is 800 GB total: each
	// OSS should hold 200 GB.
	for i, used := range c.ossUsed {
		if math.Abs(float64(used-200*units.GB)) > float64(units.GB) {
			t.Errorf("OSS %d holds %v, want ~200 GB", i, used)
		}
	}
}

func TestReadAt(t *testing.T) {
	c := newRack(t)
	if _, err := c.Write("f", 16*units.GB, 0); err != nil {
		t.Fatal(err)
	}
	end, err := c.ReadAt("f", 1000, units.MegabytesPerSecond(1600))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(end)-1010) > 1e-9 {
		t.Errorf("fast read completes at %v, want 1010", end)
	}
	if _, err := c.ReadAt("f", 0, units.MegabytesPerSecond(10)); err == nil {
		t.Error("rate below rack bandwidth accepted")
	}
	if _, err := c.ReadAt("missing", 0, units.MegabytesPerSecond(1600)); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := c.ReadAt("f", -1, units.MegabytesPerSecond(1600)); err == nil {
		t.Error("negative start accepted")
	}
}

func TestBusyTimelineMerges(t *testing.T) {
	c := newRack(t)
	// Two overlapping 6.25 s transfers must merge into one busy interval.
	if _, err := c.Write("a", 1*units.GB, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("b", 1*units.GB, 3); err != nil {
		t.Fatal(err)
	}
	want := 9.25 // [0, 6.25) U [3, 9.25) = [0, 9.25)
	if got := c.BusyTime(); math.Abs(float64(got)-want) > 1e-9 {
		t.Errorf("BusyTime = %v, want %v", got, want)
	}
}

func TestPowerTrace(t *testing.T) {
	c := newRack(t)
	if _, err := c.Write("a", 1*units.GB, 10); err != nil {
		t.Fatal(err)
	}
	tr, err := c.PowerTrace(100)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.At(5); got != 2273 {
		t.Errorf("idle power = %v", got)
	}
	if got := tr.At(12); got != 2302 {
		t.Errorf("busy power = %v", got)
	}
	if got := tr.At(50); got != 2273 {
		t.Errorf("post-transfer power = %v", got)
	}
	if tr.End() != 100 {
		t.Errorf("trace end = %v", tr.End())
	}
	// Energy: mostly idle — the paper's non-proportionality in action.
	idleOnly := units.Energy(2273, 100)
	extra := tr.Energy() - idleOnly
	if extra <= 0 || float64(extra) > 0.01*float64(idleOnly) {
		t.Errorf("dynamic energy = %v of %v idle", extra, idleOnly)
	}
	if _, err := c.PowerTrace(0); err == nil {
		t.Error("zero trace end accepted")
	}
	// Truncation: a transfer past the requested end must be clipped.
	if _, err := c.Write("late", 1*units.GB, 99); err != nil {
		t.Fatal(err)
	}
	tr2, err := c.PowerTrace(100)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.End() != 100 {
		t.Errorf("clipped trace end = %v", tr2.End())
	}
}

func TestZeroByteWrite(t *testing.T) {
	c := newRack(t)
	end, err := c.Write("empty", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if end != 5 {
		t.Errorf("zero-byte write completes at %v, want 5", end)
	}
	if c.BusyTime() != 0 {
		t.Errorf("zero-byte write marked busy time %v", c.BusyTime())
	}
}

func TestWimpyStorage(t *testing.T) {
	// Section VIII's proposal: wimpy server CPUs cut idle power to 40%
	// with the same bandwidth and capacity.
	brawny := CaddyStorage()
	wimpy := WimpyStorage()
	if wimpy.Bandwidth != brawny.Bandwidth || wimpy.Capacity != brawny.Capacity {
		t.Error("wimpy rack changed bandwidth or capacity")
	}
	if float64(wimpy.IdlePower) != 0.4*float64(brawny.IdlePower) {
		t.Errorf("wimpy idle = %v, want 40%% of %v", wimpy.IdlePower, brawny.IdlePower)
	}
	if wimpy.BusyPower-wimpy.IdlePower != brawny.BusyPower-brawny.IdlePower {
		t.Error("wimpy rack changed the dynamic swing")
	}
	if _, err := New(wimpy); err != nil {
		t.Fatal(err)
	}
}
