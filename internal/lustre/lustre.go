// Package lustre simulates the study's storage substrate: the private
// five-node Lustre rack attached to the Caddy cluster (one master, two
// metadata servers, two object storage servers, 7.7 TB capacity,
// ~160 MB/s of aggregate bandwidth). The model captures exactly the
// properties the paper's findings rest on:
//
//   - a shared, bandwidth-limited data path (transfers take size/bandwidth
//     of simulated time, and concurrent streams share the pipe), and
//   - an almost completely power-unproportional rack: 2273 W idle versus
//     2302 W at full load, a 1.3% dynamic range — the reason reducing I/O
//     does not reduce storage power (the paper's Finding 2).
//
// Files are striped across OSS targets and metadata operations land on the
// MDS nodes, so capacity and operation counts are attributable per
// component.
package lustre

import (
	"errors"
	"fmt"
	"sort"

	"insituviz/internal/faults"
	"insituviz/internal/power"
	"insituviz/internal/telemetry"
	"insituviz/internal/units"
)

// Config describes a storage rack.
type Config struct {
	Capacity  units.Bytes          // total usable capacity
	Bandwidth units.BytesPerSecond // aggregate sequential bandwidth
	IdlePower units.Watts          // rack power with no I/O in flight
	BusyPower units.Watts          // rack power at full load
	MDSCount  int                  // metadata servers
	OSSCount  int                  // object storage servers
	// StripeCount is the number of OSS objects each file is striped
	// across (clamped to OSSCount).
	StripeCount int
}

// CaddyStorage returns the paper's measured rack configuration.
func CaddyStorage() Config {
	return Config{
		Capacity:    units.Terabytes(7.7),
		Bandwidth:   units.MegabytesPerSecond(160),
		IdlePower:   2273,
		BusyPower:   2302,
		MDSCount:    2,
		OSSCount:    2,
		StripeCount: 2,
	}
}

// The rack's clients answer injected transient data-path failures with
// capped exponential backoff and deterministic jitter: retry k waits
// min(retryBaseDelay·2^(k-1), retryMaxDelay) scaled by a jitter in
// [0.5, 1), at most retryAttempts tries per operation (the first
// included) and phaseRetryBudget retries between ResetRetryBudget
// calls; once the budget is spent, further transient failures surface
// immediately.
const (
	retryAttempts    = 4
	retryBaseDelay   = units.Seconds(0.05)
	retryMaxDelay    = units.Seconds(2)
	phaseRetryBudget = 16
)

// TransientError is one injected data-path failure. It is what an
// operation reports when retries cannot absorb the fault.
type TransientError struct {
	Op   string // "write" or "read"
	Name string // file name
	Seq  uint64 // the fault's occurrence number at its site
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("lustre: transient %s failure on %q (fault #%d)", e.Op, e.Name, e.Seq)
}

// ErrRetryBudgetExhausted marks failures surfaced because the retry
// policy ran out — either the per-operation attempts or the per-phase
// budget. Match with errors.Is.
var ErrRetryBudgetExhausted = errors.New("lustre: retry budget exhausted")

// BudgetError reports an operation abandoned after the retry policy was
// exhausted. It wraps both ErrRetryBudgetExhausted and the final
// TransientError.
type BudgetError struct {
	Op       string
	Name     string
	Attempts int
	Last     error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("lustre: %s %q abandoned after %d attempts: %v", e.Op, e.Name, e.Attempts, e.Last)
}

// Unwrap exposes the sentinel and the final transient failure.
func (e *BudgetError) Unwrap() []error { return []error{ErrRetryBudgetExhausted, e.Last} }

type file struct {
	size units.Bytes
}

// Cluster is a simulated Lustre rack. All operations take a simulated
// start time and return the simulated completion time; the rack keeps a
// busy-interval timeline from which its power trace is derived.
type Cluster struct {
	cfg   Config
	used  units.Bytes
	files map[string]file

	ossUsed []units.Bytes

	// busy is the merged set of intervals during which the data path was
	// active, kept sorted and non-overlapping.
	busy []interval

	// Fault injection (nil without SetFaults; nil handles never fire).
	inj       *faults.Injector
	writeSite *faults.Site
	readSite  *faults.Site
	budget    int // retries remaining in the current phase

	// Metric handles (nil without SetTelemetry; nil handles are no-ops).
	mWritten  *telemetry.Counter
	mRead     *telemetry.Counter
	mFiles    *telemetry.Counter
	mMetaOps  *telemetry.Counter
	mStallMS  *telemetry.Counter
	mXferSize *telemetry.Histogram
	mRetries  *telemetry.Counter
	mFaults   *telemetry.Counter
}

// TransferSizeBuckets are the upper bounds (bytes) of the
// lustre.transfer.bytes histogram, spanning image-sized writes (KB-MB)
// through raw-dump reads and writes (MB-GB).
var TransferSizeBuckets = []float64{
	64 << 10, 1 << 20, 16 << 20, 256 << 20, 1 << 30, 16 << 30,
}

// SetTelemetry registers the rack's metrics in reg: byte counters for
// both data-path directions (lustre.written.bytes, lustre.read.bytes),
// file and metadata operation counts, the lustre.transfer.bytes size
// histogram, and lustre.stall.ms — the cumulative simulated milliseconds
// the shared data path was occupied by transfers, i.e. the I/O stall time
// a compute client pays waiting on the rack. A nil registry detaches the
// instrumentation.
func (c *Cluster) SetTelemetry(reg *telemetry.Registry) {
	c.mWritten = reg.Counter("lustre.written.bytes")
	c.mRead = reg.Counter("lustre.read.bytes")
	c.mFiles = reg.Counter("lustre.files.created")
	c.mMetaOps = reg.Counter("lustre.metadata.ops")
	c.mStallMS = reg.Counter("lustre.stall.ms")
	c.mXferSize = reg.Histogram("lustre.transfer.bytes", TransferSizeBuckets)
	c.mRetries = reg.Counter("lustre.retries")
	c.mFaults = reg.Counter("lustre.faults.injected")
}

// SetFaults arms the rack's fault sites ("lustre.write", "lustre.read")
// against an injector. A nil injector (the default) disarms them; the
// data path then pays only a nil test per operation.
func (c *Cluster) SetFaults(in *faults.Injector) {
	c.inj = in
	c.writeSite = in.Site("lustre.write")
	c.readSite = in.Site("lustre.read")
}

// ResetRetryBudget refills the per-phase retry budget; the pipeline calls
// it at each phase boundary so one noisy phase cannot starve the next.
func (c *Cluster) ResetRetryBudget() { c.budget = phaseRetryBudget }

// consultFaults runs one operation's fault consult-and-retry loop before
// any rack state changes. It returns the (possibly backoff-delayed)
// start time and any injected stall to add to the transfer duration; a
// non-nil error means the operation must fail with rack state untouched.
func (c *Cluster) consultFaults(site *faults.Site, op, name string, start units.Seconds) (units.Seconds, units.Seconds, error) {
	if site == nil {
		return start, 0, nil
	}
	var stall units.Seconds
	for attempt := 1; ; attempt++ {
		f, ok := site.Next()
		if !ok {
			return start, stall, nil
		}
		c.mFaults.Inc()
		if f.Kind == faults.KindStall {
			// A stall delays the transfer but does not fail it.
			stall += f.Stall
			return start, stall, nil
		}
		last := &TransientError{Op: op, Name: name, Seq: f.Seq}
		if attempt >= retryAttempts || c.budget <= 0 {
			return 0, 0, &BudgetError{Op: op, Name: name, Attempts: attempt, Last: last}
		}
		c.budget--
		c.mRetries.Inc()
		// Capped exponential backoff with deterministic jitter in
		// [0.5, 1), keyed on the failed fault's occurrence so the delay
		// sequence is part of the reproducible run.
		delay := retryBaseDelay * units.Seconds(uint64(1)<<uint(attempt-1))
		if delay > retryMaxDelay {
			delay = retryMaxDelay
		}
		start += delay * units.Seconds(0.5+0.5*c.inj.Uniform("lustre.backoff", f.Seq))
	}
}

// noteTransfer records one data-path transfer in the telemetry stream.
func (c *Cluster) noteTransfer(size units.Bytes, start, end units.Seconds) {
	c.mMetaOps.Inc()
	c.mXferSize.Observe(float64(size))
	c.mStallMS.Add(int64(float64(end-start) * 1e3))
}

type interval struct{ start, end units.Seconds }

// New builds a rack from cfg.
func New(cfg Config) (*Cluster, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("lustre: non-positive capacity %v", cfg.Capacity)
	}
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("lustre: non-positive bandwidth %v", cfg.Bandwidth)
	}
	if cfg.IdlePower < 0 || cfg.BusyPower < cfg.IdlePower {
		return nil, fmt.Errorf("lustre: invalid power range [%v, %v]", cfg.IdlePower, cfg.BusyPower)
	}
	if cfg.MDSCount < 1 || cfg.OSSCount < 1 {
		return nil, fmt.Errorf("lustre: need at least one MDS and one OSS (%d, %d)", cfg.MDSCount, cfg.OSSCount)
	}
	if cfg.StripeCount < 1 {
		cfg.StripeCount = 1
	}
	if cfg.StripeCount > cfg.OSSCount {
		cfg.StripeCount = cfg.OSSCount
	}
	return &Cluster{
		cfg:     cfg,
		files:   make(map[string]file),
		ossUsed: make([]units.Bytes, cfg.OSSCount),
		budget:  phaseRetryBudget,
	}, nil
}

// Config returns the rack configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Used returns the occupied capacity.
func (c *Cluster) Used() units.Bytes { return c.used }

// Free returns the remaining capacity.
func (c *Cluster) Free() units.Bytes { return c.cfg.Capacity - c.used }

// leastLoadedOSS returns the OSS indices to stripe a new file across,
// preferring the emptiest targets (Lustre's default allocator heuristic).
func (c *Cluster) leastLoadedOSS(n int) []int {
	idx := make([]int, len(c.ossUsed))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if c.ossUsed[idx[a]] != c.ossUsed[idx[b]] {
			return c.ossUsed[idx[a]] < c.ossUsed[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:n]
}

// Write stores a new file of the given size starting at simulated time
// start, returning the completion time. It fails when the name exists or
// capacity would be exceeded — the failure mode that forces the paper's
// climate scientists to cut their sampling rates — or when injected
// transient faults outlast the retry policy. Every failure path leaves
// the rack unchanged: no used bytes, file entries, OSS load, transfer
// counters or busy time leak from an abandoned write.
func (c *Cluster) Write(name string, size units.Bytes, start units.Seconds) (units.Seconds, error) {
	if name == "" {
		return 0, fmt.Errorf("lustre: empty file name")
	}
	if size < 0 {
		return 0, fmt.Errorf("lustre: negative size %v", size)
	}
	if start < 0 {
		return 0, fmt.Errorf("lustre: negative start time %v", start)
	}
	if _, exists := c.files[name]; exists {
		return 0, fmt.Errorf("lustre: file %q already exists", name)
	}
	if c.used+size > c.cfg.Capacity {
		return 0, fmt.Errorf("lustre: out of space writing %q: need %v, free %v", name, size, c.Free())
	}

	// Plan the stripe layout locally and consult the fault sites before
	// mutating anything, so an abandoned write commits nothing.
	stripes := make([]units.Bytes, c.cfg.StripeCount)
	targets := c.leastLoadedOSS(c.cfg.StripeCount)
	per := size / units.Bytes(c.cfg.StripeCount)
	rem := size - per*units.Bytes(c.cfg.StripeCount)
	for i := range stripes {
		stripes[i] = per
		if units.Bytes(i) < rem {
			stripes[i]++
		}
	}
	start, stall, err := c.consultFaults(c.writeSite, "write", name, start)
	if err != nil {
		return 0, err
	}

	for i := range stripes {
		c.ossUsed[targets[i]] += stripes[i]
	}
	c.files[name] = file{size: size}
	c.used += size

	end := start + c.cfg.Bandwidth.TimeToTransfer(size) + stall
	c.markBusy(start, end)
	c.mWritten.Add(int64(size))
	c.mFiles.Inc()
	c.noteTransfer(size, start, end)
	return end, nil
}

// ReadAt models reading a file at a caller-chosen effective rate — e.g.
// page-cache hits or node-local staging reads that do not pay the full
// storage round trip. The rate must be at least the rack bandwidth.
func (c *Cluster) ReadAt(name string, start units.Seconds, rate units.BytesPerSecond) (units.Seconds, error) {
	if rate < c.cfg.Bandwidth {
		return 0, fmt.Errorf("lustre: effective read rate %v below rack bandwidth %v", rate, c.cfg.Bandwidth)
	}
	f, ok := c.files[name]
	if !ok {
		return 0, fmt.Errorf("lustre: no such file %q", name)
	}
	if start < 0 {
		return 0, fmt.Errorf("lustre: negative start time %v", start)
	}
	start, stall, err := c.consultFaults(c.readSite, "read", name, start)
	if err != nil {
		return 0, err
	}
	end := start + rate.TimeToTransfer(f.size) + stall
	c.markBusy(start, end)
	c.mRead.Add(int64(f.size))
	c.noteTransfer(f.size, start, end)
	return end, nil
}

// markBusy merges [start, end) into the busy timeline.
func (c *Cluster) markBusy(start, end units.Seconds) {
	if end <= start {
		return
	}
	c.busy = append(c.busy, interval{start, end})
	sort.Slice(c.busy, func(i, j int) bool { return c.busy[i].start < c.busy[j].start })
	merged := c.busy[:0]
	for _, iv := range c.busy {
		if n := len(merged); n > 0 && iv.start <= merged[n-1].end {
			if iv.end > merged[n-1].end {
				merged[n-1].end = iv.end
			}
			continue
		}
		merged = append(merged, iv)
	}
	c.busy = merged
}

// BusyTime returns the total simulated time the data path was active.
func (c *Cluster) BusyTime() units.Seconds {
	var s units.Seconds
	for _, iv := range c.busy {
		s += iv.end - iv.start
	}
	return s
}

// PowerTrace returns the rack's ground-truth power over [0, until]: idle
// power with the busy power drawn during data-path activity. This is what
// the paper's Raritan PDU rack meter observes.
func (c *Cluster) PowerTrace(until units.Seconds) (*power.Trace, error) {
	if until <= 0 {
		return nil, fmt.Errorf("lustre: non-positive trace end %v", until)
	}
	tr := &power.Trace{}
	cursor := units.Seconds(0)
	for _, iv := range c.busy {
		if iv.start >= until {
			break
		}
		end := iv.end
		if end > until {
			end = until
		}
		if iv.start > cursor {
			if err := tr.Append(cursor, iv.start, c.cfg.IdlePower); err != nil {
				return nil, err
			}
		}
		if err := tr.Append(iv.start, end, c.cfg.BusyPower); err != nil {
			return nil, err
		}
		cursor = end
	}
	if cursor < until {
		if err := tr.Append(cursor, until, c.cfg.IdlePower); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// PowerProportionality returns the rack's dynamic power range as a
// fraction of idle power — 1.3% for the paper's rack, versus 193% for its
// compute cluster.
func (c *Cluster) PowerProportionality() float64 {
	if c.cfg.IdlePower == 0 {
		return 0
	}
	return float64(c.cfg.BusyPower-c.cfg.IdlePower) / float64(c.cfg.IdlePower)
}

// WimpyStorage returns Section VIII's proposed redesign of the rack: the
// "brawny" server CPUs replaced with "wimpy" ones at 40% of the idle power
// "with little to no difference in the storage bandwidth offered".
func WimpyStorage() Config {
	cfg := CaddyStorage()
	cfg.IdlePower = units.Watts(float64(cfg.IdlePower) * 0.4)
	cfg.BusyPower = cfg.IdlePower + 29 // same dynamic swing as measured
	return cfg
}
