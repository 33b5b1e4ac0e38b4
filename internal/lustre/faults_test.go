package lustre

import (
	"errors"
	"testing"

	"insituviz/internal/faults"
	"insituviz/internal/telemetry"
	"insituviz/internal/units"
)

func newFaultyCluster(t *testing.T, plan faults.Plan) (*Cluster, *faults.Injector) {
	t.Helper()
	c, err := New(CaddyStorage())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	in, err := faults.New(plan)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	c.SetFaults(in)
	return c, in
}

// TestFailedWriteLeavesStateUntouched is the partial-failure accounting
// contract: an abandoned write must not leak used bytes, file entries,
// OSS load, stats, or busy time.
func TestFailedWriteLeavesStateUntouched(t *testing.T) {
	// Every occurrence errors and the policy allows no retries, so the
	// second write is abandoned immediately.
	c, _ := newFaultyCluster(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: "lustre.write", Kind: faults.KindError, At: []uint64{2, 3, 4, 5}},
	}})
	if _, err := c.Write("ok", 10*units.MB, 0); err != nil {
		t.Fatalf("first write: %v", err)
	}

	before := c.Stats()
	free := c.Free()
	files := len(c.files)
	oss := append([]units.Bytes(nil), c.ossUsed...)
	busy := c.BusyTime()

	if err := c.SetRetry(RetryPolicy{MaxAttempts: 1, BaseDelay: 0.01, MaxDelay: 1, PhaseBudget: 4}); err != nil {
		t.Fatalf("SetRetry: %v", err)
	}
	_, err := c.Write("doomed", 20*units.MB, 5)
	if err == nil {
		t.Fatal("faulted write succeeded")
	}
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Errorf("error %v does not match ErrRetryBudgetExhausted", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Op != "write" || be.Name != "doomed" {
		t.Errorf("error %v is not the typed BudgetError for the write", err)
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Errorf("error %v does not wrap the TransientError", err)
	}

	if got := c.Stats(); got != before {
		t.Errorf("Stats changed across failed write: %+v -> %+v", before, got)
	}
	if got := c.Free(); got != free {
		t.Errorf("Free changed across failed write: %v -> %v", free, got)
	}
	if got := len(c.files); got != files {
		t.Errorf("FileCount changed: %d -> %d", files, got)
	}
	for i, u := range c.ossUsed {
		if u != oss[i] {
			t.Errorf("OSS %d load changed: %v -> %v", i, oss[i], u)
		}
	}
	if got := c.BusyTime(); got != busy {
		t.Errorf("BusyTime changed across failed write: %v -> %v", busy, got)
	}
	if _, ok := c.files["doomed"]; ok {
		t.Error("abandoned write left a file entry behind")
	}
}

func TestRetriesAbsorbTransientFaults(t *testing.T) {
	// Occurrences 1 and 2 of the write site error; attempts 3 succeeds
	// under the default policy (4 attempts).
	c, in := newFaultyCluster(t, faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Site: "lustre.write", Kind: faults.KindError, At: []uint64{1, 2}},
	}})
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)

	plainEnd := CaddyStorage().Bandwidth.TimeToTransfer(10 * units.MB)
	end, err := c.Write("f", 10*units.MB, 0)
	if err != nil {
		t.Fatalf("write with retries: %v", err)
	}
	if end <= plainEnd {
		t.Errorf("retried write end %v not delayed past plain end %v", end, plainEnd)
	}
	if got := reg.Counter("lustre.retries").Value(); got != 2 {
		t.Errorf("lustre.retries = %d, want 2", got)
	}
	if got := reg.Counter("lustre.faults.injected").Value(); got != 2 {
		t.Errorf("lustre.faults.injected = %d, want 2", got)
	}
	if got := in.Fired(); got != 2 {
		t.Errorf("injector fired %d faults, want 2", got)
	}
	if got := c.Stats().FilesCreated; got != 1 {
		t.Errorf("FilesCreated = %d, want 1", got)
	}
}

func TestRetryDelaysAreDeterministic(t *testing.T) {
	plan := faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Site: "lustre.write", Kind: faults.KindError, At: []uint64{1, 2}},
	}}
	run := func() units.Seconds {
		c, _ := newFaultyCluster(t, plan)
		end, err := c.Write("f", 10*units.MB, 0)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same plan, different completion times: %v vs %v", a, b)
	}
}

func TestInjectedStallExtendsTransfer(t *testing.T) {
	c, _ := newFaultyCluster(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: "lustre.read", Kind: faults.KindStall, At: []uint64{1}, Stall: 3},
	}})
	if _, err := c.Write("f", 10*units.MB, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	plain := CaddyStorage().Bandwidth.TimeToTransfer(10 * units.MB)
	end, err := c.Read("f", 100)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := units.Seconds(100) + plain + 3; end != want {
		t.Errorf("stalled read end = %v, want %v", end, want)
	}
}

func TestPhaseBudgetExhaustionAndReset(t *testing.T) {
	// Every read occurrence errors, so the 2-retry budget drains and the
	// read surfaces the exhaustion; a reset refills it for the next phase.
	c, _ := newFaultyCluster(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: "lustre.read", Kind: faults.KindError, Prob: 1},
	}})
	if err := c.SetRetry(RetryPolicy{MaxAttempts: 8, BaseDelay: 0.01, MaxDelay: 1, PhaseBudget: 2}); err != nil {
		t.Fatalf("SetRetry: %v", err)
	}
	if _, err := c.Write("f", 1*units.MB, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.Read("f", 10); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("read error = %v, want budget exhaustion", err)
	}
	if got := c.RetryBudget(); got != 0 {
		t.Errorf("budget after exhaustion = %d, want 0", got)
	}
	c.ResetRetryBudget()
	if got := c.RetryBudget(); got != 2 {
		t.Errorf("budget after reset = %d, want 2", got)
	}
}

func TestReadFailureLeavesStatsUntouched(t *testing.T) {
	c, _ := newFaultyCluster(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: "lustre.read", Kind: faults.KindError, Prob: 1},
	}})
	if err := c.SetRetry(RetryPolicy{MaxAttempts: 1, BaseDelay: 0.01, MaxDelay: 1, PhaseBudget: 0}); err != nil {
		t.Fatalf("SetRetry: %v", err)
	}
	if _, err := c.Write("f", 1*units.MB, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	before := c.Stats()
	busy := c.BusyTime()
	if _, err := c.Read("f", 10); err == nil {
		t.Fatal("faulted read succeeded")
	}
	if got := c.Stats(); got != before {
		t.Errorf("Stats changed across failed read: %+v -> %+v", before, got)
	}
	if got := c.BusyTime(); got != busy {
		t.Errorf("BusyTime changed across failed read: %v -> %v", busy, got)
	}
}

func TestDisarmedClusterUnaffected(t *testing.T) {
	c, err := New(CaddyStorage())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.SetFaults(nil) // explicit disarm is a no-op, not a panic
	if _, err := c.Write("f", 1*units.MB, 0); err != nil {
		t.Fatalf("write on disarmed cluster: %v", err)
	}
	if _, err := c.Read("f", 10); err != nil {
		t.Fatalf("read on disarmed cluster: %v", err)
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	bad := []RetryPolicy{
		{MaxAttempts: 0, BaseDelay: 0.1, MaxDelay: 1, PhaseBudget: 1},
		{MaxAttempts: 1, BaseDelay: -0.1, MaxDelay: 1, PhaseBudget: 1},
		{MaxAttempts: 1, BaseDelay: 2, MaxDelay: 1, PhaseBudget: 1},
		{MaxAttempts: 1, BaseDelay: 0.1, MaxDelay: 1, PhaseBudget: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d validated: %+v", i, p)
		}
	}
	if err := DefaultRetryPolicy().Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
}
