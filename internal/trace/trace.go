// Package trace is the timeline half of the observability stack: a
// low-overhead tracer recording hierarchical begin/end spans and instant
// events into preallocated per-lane ring buffers, plus an attribution
// engine that joins a completed timeline against metered power profiles
// to produce per-phase energy breakdowns.
//
// The package exists because the paper's central measurement is
// *time-aligned*: 1 Hz power profiles are overlaid on the pipeline's phase
// timeline so each phase (simulation, in-situ visualization, I/O,
// post-hoc readback) can be attributed its share of energy. The telemetry
// registry answers "how much, how often"; this package answers "when",
// which is what makes the overlay — and therefore the paper's per-phase
// energy attribution — possible.
//
// The tracer inherits the telemetry package's contracts:
//
//   - Zero allocation on the hot path. Begin, End, and Instant write one
//     preallocated ring slot under a per-lane mutex; names are the
//     caller's string constants, never formatted or copied. Registration
//     (Tracer.Lane) may allocate; callers hold the lane handle.
//
//   - Nil safety. Every hot-path method is a no-op on a nil receiver and
//     a nil *Tracer returns nil lanes, so instrumentation is wired
//     unconditionally and disabled by not supplying a tracer.
//
//   - Deterministic shape. Snapshot orders lanes by registration and
//     events by ring order; exports render byte-identically for identical
//     timelines.
//
// Timestamps are int64 nanoseconds. Live components use the tracer's
// monotonic clock (Begin/End/Instant); the simulated-machine components
// pass explicit simulated-time stamps (SpanAt), so one timeline format
// serves both clocks of the design (DESIGN.md §4).
package trace

import (
	"sync"
	"time"

	"insituviz/internal/units"
)

// DefaultLaneCapacity is the per-lane ring size used when Options leaves
// it zero: enough for the live coupled runs (hundreds of steps, a handful
// of samples) with generous headroom; older events are overwritten once
// the ring wraps, and the overwrite count is reported on the snapshot.
const DefaultLaneCapacity = 8192

// EventKind discriminates the three record shapes in a lane.
type EventKind uint8

// The event kinds of the trace model.
const (
	// EventBegin opens a span; it nests under any span already open in
	// the same lane.
	EventBegin EventKind = iota
	// EventEnd closes the innermost open span.
	EventEnd
	// EventInstant marks a point in time (a trigger firing, a dump
	// landing) with no duration.
	EventInstant
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventBegin:
		return "begin"
	case EventEnd:
		return "end"
	case EventInstant:
		return "instant"
	}
	return "event(?)"
}

// Event is one ring-buffer record. Name is the span/instant name (empty
// for EventEnd, which closes by position, not by name); Detail is an
// optional free-form annotation surfaced in exports but ignored by the
// attribution engine.
type Event struct {
	Kind   EventKind
	Name   string
	Detail string
	TS     int64 // nanoseconds on the tracer's clock
}

// Options configures a Tracer.
type Options struct {
	// LaneCapacity is the ring size of each lane (events). Zero selects
	// DefaultLaneCapacity.
	LaneCapacity int
	// Clock supplies timestamps for Begin/End/Instant, in nanoseconds.
	// Nil selects a wall clock monotonic from New. The explicit-timestamp
	// SpanAt never consults the clock.
	Clock func() int64
}

// Tracer owns a set of named lanes — one per simulated rank or component —
// all sharing one clock, so spans recorded from different lanes are
// mutually ordered. A nil *Tracer returns nil lanes from Lane, which
// no-op on every method.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	clock  func() int64
	lanes  []*Lane
	byName map[string]*Lane
}

// New returns a tracer with the given options.
func New(opt Options) *Tracer {
	c := opt.LaneCapacity
	if c <= 0 {
		c = DefaultLaneCapacity
	}
	clock := opt.Clock
	if clock == nil {
		epoch := time.Now()
		clock = func() int64 { return int64(time.Since(epoch)) }
	}
	return &Tracer{cap: c, clock: clock, byName: map[string]*Lane{}}
}

// Now reads the tracer's clock; 0 on a nil tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Lane returns the lane registered under name, creating it on first use
// (the ring is preallocated here, not on the hot path). Lane IDs are
// assigned in registration order and become thread IDs in exports.
// Returns nil on a nil tracer.
func (t *Tracer) Lane(name string) *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.byName[name]; ok {
		return l
	}
	l := &Lane{name: name, id: len(t.lanes), clock: t.clock, ring: make([]Event, t.cap)}
	t.lanes = append(t.lanes, l)
	t.byName[name] = l
	return l
}

// Lane is one timeline track. All methods are safe for concurrent use:
// helper goroutines (the worker pool's chunks) may record into the lane
// handle their closure captured, and events serialize — with timestamps
// taken under the lane lock, so ring order is timestamp order.
type Lane struct {
	name  string
	id    int
	clock func() int64

	mu   sync.Mutex
	ring []Event
	next uint64 // total events ever recorded; next%len(ring) is the write slot
}

// record writes one event slot. Callers hold no locks.
func (l *Lane) record(kind EventKind, name, detail string, ts int64, onClock bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if onClock {
		ts = l.clock()
	}
	l.ring[l.next%uint64(len(l.ring))] = Event{Kind: kind, Name: name, Detail: detail, TS: ts}
	l.next++
	l.mu.Unlock()
}

// Begin opens a span named name at the current clock, nesting under any
// open span. Pair with End. No-op on nil.
func (l *Lane) Begin(name string) { l.record(EventBegin, name, "", 0, true) }

// End closes the innermost open span at the current clock. No-op on nil.
func (l *Lane) End() { l.record(EventEnd, "", "", 0, true) }

// Instant records a point event at the current clock. No-op on nil.
func (l *Lane) Instant(name string) { l.record(EventInstant, name, "", 0, true) }

// SpanAt records a complete span [start, end] with an optional detail
// annotation — the one-call form the simulated machine uses for its
// already-finished phases.
func (l *Lane) SpanAt(name, detail string, start, end int64) {
	if l == nil {
		return
	}
	l.record(EventBegin, name, detail, start, false)
	l.record(EventEnd, "", "", end, false)
}

// Span is one reconstructed begin/end pair. Open spans (begun but not yet
// ended when the snapshot was taken) are closed at the snapshot's end
// timestamp and flagged.
type Span struct {
	Name   string
	Detail string
	Start  units.Seconds
	End    units.Seconds
	Depth  int // nesting depth; 0 for top-level spans
	Open   bool
}

// Duration returns the span length.
func (s Span) Duration() units.Seconds { return s.End - s.Start }

// Instant is one reconstructed point event.
type Instant struct {
	Name string
	TS   units.Seconds
}

// LaneTimeline is one lane's reconstructed history.
type LaneTimeline struct {
	Name string
	ID   int
	// Spans are the reconstructed spans in start order (begin order in
	// the ring); Instants are point events in ring order.
	Spans    []Span
	Instants []Instant
	// Dropped counts events lost to ring overwrite; Orphans counts End
	// events whose Begin was overwritten (their spans are not
	// reconstructable and are skipped).
	Dropped int64
	Orphans int64
}

// Timeline is a point-in-time copy of every lane, the unit the exporters
// and the attribution engine consume.
type Timeline struct {
	Lanes []LaneTimeline
}

// Snapshot reconstructs every lane's timeline from its ring contents.
// Like the telemetry snapshot, it is not a consistent cut under
// concurrent recording — each lane is copied under its own lock — which
// is the live-exposition contract. Returns an empty timeline on nil.
func (t *Tracer) Snapshot() *Timeline {
	tl := &Timeline{}
	if t == nil {
		return tl
	}
	t.mu.Lock()
	lanes := append([]*Lane(nil), t.lanes...)
	t.mu.Unlock()
	for _, l := range lanes {
		tl.Lanes = append(tl.Lanes, l.timeline())
	}
	return tl
}

// Lane returns the named lane's timeline, or nil if absent.
func (tl *Timeline) Lane(name string) *LaneTimeline {
	for i := range tl.Lanes {
		if tl.Lanes[i].Name == name {
			return &tl.Lanes[i]
		}
	}
	return nil
}

// timeline copies the ring under the lane lock and reconstructs spans.
func (l *Lane) timeline() LaneTimeline {
	l.mu.Lock()
	n := l.next
	size := uint64(len(l.ring))
	count := n
	if count > size {
		count = size
	}
	events := make([]Event, count)
	for i := uint64(0); i < count; i++ {
		events[i] = l.ring[(n-count+i)%size]
	}
	l.mu.Unlock()

	lt := LaneTimeline{Name: l.name, ID: l.id, Dropped: int64(n - count)}

	// Reconstruct spans with a stack walk. An End with an empty stack is
	// an orphan: its Begin was overwritten (or never recorded).
	type open struct {
		name   string
		detail string
		ts     int64
		depth  int
	}
	var stack []open
	var last int64
	for _, ev := range events {
		if ev.TS > last {
			last = ev.TS
		}
		switch ev.Kind {
		case EventBegin:
			stack = append(stack, open{ev.Name, ev.Detail, ev.TS, len(stack)})
		case EventEnd:
			if len(stack) == 0 {
				lt.Orphans++
				continue
			}
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lt.Spans = append(lt.Spans, Span{
				Name: o.name, Detail: o.detail,
				Start: nsToSeconds(o.ts), End: nsToSeconds(ev.TS), Depth: o.depth,
			})
		case EventInstant:
			lt.Instants = append(lt.Instants, Instant{Name: ev.Name, TS: nsToSeconds(ev.TS)})
		}
	}
	// Close still-open spans at the lane's last observed instant so a
	// mid-run snapshot shows them; deepest first so starts stay ordered
	// after the sort below.
	for i := len(stack) - 1; i >= 0; i-- {
		o := stack[i]
		lt.Spans = append(lt.Spans, Span{
			Name: o.name, Detail: o.detail,
			Start: nsToSeconds(o.ts), End: nsToSeconds(last), Depth: o.depth, Open: true,
		})
	}
	// Ends pop inner spans first; re-order by (start, depth) so the
	// timeline reads chronologically and exports are deterministic.
	sortSpans(lt.Spans)
	return lt
}

// sortSpans orders by start time, then depth, then name — a stable
// chronological order (insertion sort: span counts are modest and the
// input is nearly sorted already).
func sortSpans(spans []Span) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spanLess(spans[j], spans[j-1]); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func spanLess(a, b Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	return a.Name < b.Name
}

func nsToSeconds(ns int64) units.Seconds { return units.Seconds(float64(ns) / 1e9) }
