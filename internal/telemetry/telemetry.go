// Package telemetry is the observability substrate of the live coupled
// stack: a named registry of atomic counters, gauges, float gauges and
// fixed-bucket histograms, with a deterministic text/JSON exposition.
//
// The package exists because the paper's whole contribution is
// *measurement* — per-phase time, power, and energy — and the stack that
// reproduces it must therefore be able to account for its own phases
// without perturbing them. Two properties are contractual:
//
//   - Zero allocation on the hot path. Counter.Add, Gauge.Set,
//     FloatGauge.Set and Histogram.Observe perform only atomic operations
//     on preallocated state, so the 0 allocs/op budgets of the solver and
//     render loops (PR 1) hold with instrumentation enabled. Registration
//     (Registry.Counter and friends) may allocate and lock; callers hold
//     the returned handle instead of looking metrics up per operation.
//
//   - Nil safety. Every hot-path method is a no-op on a nil receiver, and
//     a nil *Registry returns nil handles, so instrumentation can be wired
//     unconditionally and disabled by simply not supplying a registry.
//
// Metric values themselves (wall times, queue depths) are inherently
// nondeterministic; what is deterministic is the exposition *shape*: a
// Snapshot renders metrics in sorted name order, byte-identical for
// identical values regardless of registration order.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores all writes.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be any sign, but counters are conventionally
// monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (queue depth, phase duration,
// occupancy). The zero value is ready to use; a nil Gauge ignores writes.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (occupancy-style gauges: entries enter
// and leave). Add(0) is free of the atomic write.
func (g *Gauge) Add(delta int64) {
	if g != nil && delta != 0 {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to n if n exceeds the current value — a
// high-water mark.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil Gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an instantaneous atomic float64 value — model
// coefficients, burn rates, anything where integer truncation would
// destroy the signal. Stored as raw IEEE-754 bits in a single atomic
// word, so Set and Value stay 0-alloc and tear-free. The zero value is
// ready to use; a nil FloatGauge ignores writes.
type FloatGauge struct {
	v atomic.Uint64
}

// Set stores x.
func (g *FloatGauge) Set(x float64) {
	if g != nil {
		g.v.Store(math.Float64bits(x))
	}
}

// Value returns the current value; 0 on a nil FloatGauge.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Registry is a named collection of metrics. Lookups are idempotent: the
// first call with a name registers the metric, later calls return the same
// handle. A nil *Registry returns nil handles, which are safe no-ops, so a
// component can be instrumented unconditionally and run un-observed at
// zero cost beyond a nil check.
//
// Counters, gauges, float gauges and histograms live in separate
// namespaces, but sharing one name across kinds is a registration error
// (it would make the exposition ambiguous) and panics, like
// expvar.Publish on a duplicate name.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	floatGauges map[string]*FloatGauge
	histograms  map[string]*Histogram
	kinds       map[string]string // name -> kind, for collision detection
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		histograms:  make(map[string]*Histogram),
		kinds:       make(map[string]string),
	}
}

// claim records name as holding a metric of the given kind, panicking on a
// cross-kind collision. Callers hold r.mu.
func (r *Registry) claim(name, kind string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a %s, requested as a %s", name, prev, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.claim(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.claim(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// FloatGauge returns the float gauge registered under name, creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.floatGauges[name]; ok {
		return g
	}
	r.claim(name, "fgauge")
	g := &FloatGauge{}
	r.floatGauges[name] = g
	return g
}

// sortedNames returns the keys of a metric map in sorted order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
