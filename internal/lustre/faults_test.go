package lustre

import (
	"errors"
	"testing"

	"insituviz/internal/faults"
	"insituviz/internal/telemetry"
	"insituviz/internal/units"
)

func newFaultyCluster(t *testing.T, plan faults.Plan) (*Cluster, *faults.Injector, *telemetry.Registry) {
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
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg)
	return c, in, reg
}

// TestFailedWriteLeavesStateUntouched is the partial-failure accounting
// contract: an abandoned write must not leak used bytes, file entries,
// OSS load, transfer counters, or busy time.
func TestFailedWriteLeavesStateUntouched(t *testing.T) {
	// Occurrences 2–5 error, so every one of the second write's
	// retryAttempts tries fails and the write is abandoned.
	c, _, reg := newFaultyCluster(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: "lustre.write", Kind: faults.KindError, At: []uint64{2, 3, 4, 5}},
	}})
	if _, err := c.Write("ok", 10*units.MB, 0); err != nil {
		t.Fatalf("first write: %v", err)
	}

	before := activityOf(reg)
	free := c.Free()
	files := len(c.files)
	oss := append([]units.Bytes(nil), c.ossUsed...)
	busy := c.BusyTime()

	_, err := c.Write("doomed", 20*units.MB, 5)
	if err == nil {
		t.Fatal("faulted write succeeded")
	}
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Errorf("error %v does not match ErrRetryBudgetExhausted", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Op != "write" || be.Name != "doomed" || be.Attempts != retryAttempts {
		t.Errorf("error %v is not the typed BudgetError for the write after %d attempts", err, retryAttempts)
	}
	if c.budget != phaseRetryBudget-(retryAttempts-1) {
		t.Errorf("budget = %d after one abandoned write, want %d", c.budget, phaseRetryBudget-(retryAttempts-1))
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Errorf("error %v does not wrap the TransientError", err)
	}

	if got := activityOf(reg); got != before {
		t.Errorf("activity changed across failed write: %+v -> %+v", before, got)
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
	c, in, reg := newFaultyCluster(t, faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Site: "lustre.write", Kind: faults.KindError, At: []uint64{1, 2}},
	}})

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
	if got := reg.Counter("lustre.files.created").Value(); got != 1 {
		t.Errorf("lustre.files.created = %d, want 1", got)
	}
}

func TestRetryDelaysAreDeterministic(t *testing.T) {
	plan := faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Site: "lustre.write", Kind: faults.KindError, At: []uint64{1, 2}},
	}}
	run := func() units.Seconds {
		c, _, _ := newFaultyCluster(t, plan)
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
	c, _, _ := newFaultyCluster(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: "lustre.read", Kind: faults.KindStall, At: []uint64{1}, Stall: 3},
	}})
	if _, err := c.Write("f", 10*units.MB, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	plain := CaddyStorage().Bandwidth.TimeToTransfer(10 * units.MB)
	end, err := c.read("f", 100)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := units.Seconds(100) + plain + 3; end != want {
		t.Errorf("stalled read end = %v, want %v", end, want)
	}
}

func TestPhaseBudgetExhaustionAndReset(t *testing.T) {
	// Every read occurrence errors. Each read spends retryAttempts-1
	// retries until the phase budget runs short; then a read is abandoned
	// as soon as the budget is spent, and once it is empty, on its first
	// failure. A reset refills it for the next phase.
	c, _, _ := newFaultyCluster(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: "lustre.read", Kind: faults.KindError, Prob: 1},
	}})
	if _, err := c.Write("f", 1*units.MB, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	attempts := func() int {
		t.Helper()
		_, err := c.read("f", 10)
		var be *BudgetError
		if !errors.As(err, &be) || !errors.Is(err, ErrRetryBudgetExhausted) {
			t.Fatalf("read error = %v, want a BudgetError", err)
		}
		return be.Attempts
	}
	full := phaseRetryBudget / (retryAttempts - 1)
	for i := 0; i < full; i++ {
		if got := attempts(); got != retryAttempts {
			t.Fatalf("read %d: %d attempts with budget left, want %d", i, got, retryAttempts)
		}
	}
	if got, want := attempts(), 1+phaseRetryBudget%(retryAttempts-1); got != want {
		t.Errorf("read draining the budget: %d attempts, want %d", got, want)
	}
	if got := attempts(); got != 1 || c.budget != 0 {
		t.Errorf("read on an empty budget: %d attempts, budget %d; want 1 and 0", got, c.budget)
	}
	c.ResetRetryBudget()
	if c.budget != phaseRetryBudget {
		t.Errorf("budget after reset = %d, want %d", c.budget, phaseRetryBudget)
	}
	if got := attempts(); got != retryAttempts {
		t.Errorf("read after reset: %d attempts, want %d", got, retryAttempts)
	}
}

func TestReadFailureLeavesStatsUntouched(t *testing.T) {
	c, _, reg := newFaultyCluster(t, faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Site: "lustre.read", Kind: faults.KindError, Prob: 1},
	}})
	if _, err := c.Write("f", 1*units.MB, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	before := activityOf(reg)
	busy := c.BusyTime()
	if _, err := c.read("f", 10); err == nil {
		t.Fatal("faulted read succeeded")
	}
	if got := activityOf(reg); got != before {
		t.Errorf("activity changed across failed read: %+v -> %+v", before, got)
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
	if _, err := c.read("f", 10); err != nil {
		t.Fatalf("read on disarmed cluster: %v", err)
	}
}
