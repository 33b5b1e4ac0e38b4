package trace

import (
	"fmt"
	"testing"

	"insituviz/internal/workpool"
)

// manualClock returns a tracer clock ticking 10 ns per read, plus a
// pointer to the current time for assertions. Single-goroutine tests only.
func manualClock() (func() int64, *int64) {
	now := new(int64)
	return func() int64 { *now += 10; return *now }, now
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Now() != 0 {
		t.Error("nil tracer Now != 0")
	}
	l := tr.Lane("anything")
	if l != nil {
		t.Fatal("nil tracer returned a lane")
	}
	// Every hot-path method must no-op, not panic.
	l.Begin("x")
	l.End()
	l.Instant("x")
	l.record(EventBegin, "x", "", 1, false)
	l.record(EventEnd, "", "", 2, false)
	l.record(EventInstant, "x", "", 3, false)
	l.SpanAt("x", "d", 1, 2)
	tl := tr.Snapshot()
	if tl == nil || len(tl.Lanes) != 0 {
		t.Errorf("nil tracer snapshot = %+v", tl)
	}
}

func TestLaneRegistration(t *testing.T) {
	tr := New(Options{})
	a := tr.Lane("a")
	b := tr.Lane("b")
	if tr.Lane("a") != a {
		t.Error("Lane not idempotent")
	}
	if a.name != "a" || b.name != "b" {
		t.Errorf("names = %q, %q", a.name, b.name)
	}
	tl := tr.Snapshot()
	if len(tl.Lanes) != 2 || tl.Lanes[0].Name != "a" || tl.Lanes[1].Name != "b" {
		t.Fatalf("lanes = %+v", tl.Lanes)
	}
	if tl.Lanes[0].ID != 0 || tl.Lanes[1].ID != 1 {
		t.Errorf("IDs = %d, %d; want registration order", tl.Lanes[0].ID, tl.Lanes[1].ID)
	}
	if tl.Lane("b") == nil || tl.Lane("zzz") != nil {
		t.Error("Timeline.Lane lookup broken")
	}
}

func TestSpanReconstruction(t *testing.T) {
	clock, _ := manualClock()
	tr := New(Options{Clock: clock})
	l := tr.Lane("driver")
	l.Begin("outer")  // ts 10
	l.Begin("inner")  // ts 20
	l.End()           // ts 30
	l.End()           // ts 40
	l.Instant("tick") // ts 50

	lt := tr.Snapshot().Lane("driver")
	if len(lt.Spans) != 2 {
		t.Fatalf("spans = %+v", lt.Spans)
	}
	// Sorted by (start, depth): outer first.
	outer, inner := lt.Spans[0], lt.Spans[1]
	if outer.Name != "outer" || outer.Depth != 0 || outer.Open {
		t.Errorf("outer = %+v", outer)
	}
	if inner.Name != "inner" || inner.Depth != 1 {
		t.Errorf("inner = %+v", inner)
	}
	if !(outer.Start < inner.Start && inner.End < outer.End) {
		t.Errorf("nesting violated: outer [%v,%v], inner [%v,%v]",
			outer.Start, outer.End, inner.Start, inner.End)
	}
	if d := float64(inner.Duration()) - 10e-9; d < -1e-15 || d > 1e-15 {
		t.Errorf("inner duration = %v", inner.Duration())
	}
	if len(lt.Instants) != 1 || lt.Instants[0].Name != "tick" {
		t.Errorf("instants = %+v", lt.Instants)
	}
	if lt.Dropped != 0 || lt.Orphans != 0 {
		t.Errorf("dropped = %d, orphans = %d", lt.Dropped, lt.Orphans)
	}
}

func TestOpenSpansClosedAtSnapshot(t *testing.T) {
	tr := New(Options{})
	l := tr.Lane("driver")
	l.record(EventBegin, "running", "", 100, false)
	l.record(EventInstant, "progress", "", 500, false)
	lt := tr.Snapshot().Lane("driver")
	if len(lt.Spans) != 1 {
		t.Fatalf("spans = %+v", lt.Spans)
	}
	s := lt.Spans[0]
	if !s.Open {
		t.Error("span not flagged open")
	}
	if s.End != nsToSeconds(500) {
		t.Errorf("open span closed at %v, want the lane's last ts", s.End)
	}
}

func TestOrphanEnds(t *testing.T) {
	tr := New(Options{})
	l := tr.Lane("driver")
	l.record(EventEnd, "", "", 10, false) // no matching begin
	l.SpanAt("ok", "", 20, 30)
	lt := tr.Snapshot().Lane("driver")
	if lt.Orphans != 1 {
		t.Errorf("orphans = %d", lt.Orphans)
	}
	if len(lt.Spans) != 1 || lt.Spans[0].Name != "ok" {
		t.Errorf("spans = %+v", lt.Spans)
	}
}

func TestRingWrapCountsDrops(t *testing.T) {
	tr := New(Options{LaneCapacity: 8})
	l := tr.Lane("driver")
	// 16 complete spans = 32 events; the ring keeps the last 8.
	for i := 0; i < 16; i++ {
		l.SpanAt("s", "", int64(i*10), int64(i*10+5))
	}
	lt := tr.Snapshot().Lane("driver")
	if lt.Dropped != 24 {
		t.Errorf("dropped = %d, want 24", lt.Dropped)
	}
	if len(lt.Spans) != 4 {
		t.Errorf("spans = %d, want the 4 that fit", len(lt.Spans))
	}
	// The survivors are the newest ones.
	if lt.Spans[0].Start != nsToSeconds(120) {
		t.Errorf("oldest surviving span starts at %v", lt.Spans[0].Start)
	}
}

func TestSpanAtDetail(t *testing.T) {
	tr := New(Options{})
	l := tr.Lane("storage")
	l.SpanAt("store.write", "raw/output_00001.nc", 10, 20)
	lt := tr.Snapshot().Lane("storage")
	if len(lt.Spans) != 1 || lt.Spans[0].Detail != "raw/output_00001.nc" {
		t.Fatalf("spans = %+v", lt.Spans)
	}
}

// TestHotPathAllocs pins the package's zero-allocation contract: with the
// lane handle already registered, Begin/End/Instant and the explicit-
// timestamp variants allocate nothing.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tr := New(Options{})
	l := tr.Lane("hot")
	if n := testing.AllocsPerRun(100, func() {
		l.Begin("span")
		l.Instant("tick")
		l.End()
		l.SpanAt("s", "", 1, 2)
	}); n != 0 {
		t.Errorf("hot path allocates %v per op", n)
	}
}

// TestWorkpoolLanes is the tracer/workpool interaction contract: helper
// goroutines executing pool chunks record through the lane handles their
// closure captured, and every span lands in the lane it was recorded on.
// Run under -race, this also exercises the per-lane locking.
func TestWorkpoolLanes(t *testing.T) {
	const n = 64
	tr := New(Options{LaneCapacity: 4 * n})
	lanes := make([]*Lane, n)
	for i := range lanes {
		lanes[i] = tr.Lane(fmt.Sprintf("rank%02d", i))
	}
	shared := tr.Lane("shared")
	workpool.Run(n, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lanes[i].Begin("work")
			shared.Instant("tick")
			lanes[i].End()
		}
	})
	tl := tr.Snapshot()
	for i := 0; i < n; i++ {
		lt := tl.Lane(fmt.Sprintf("rank%02d", i))
		if lt == nil || len(lt.Spans) != 1 {
			t.Fatalf("lane %d: %+v", i, lt)
		}
		if lt.Spans[0].Name != "work" || lt.Spans[0].Open {
			t.Errorf("lane %d span = %+v", i, lt.Spans[0])
		}
	}
	sh := tl.Lane("shared")
	if len(sh.Instants) != n {
		t.Errorf("shared instants = %d, want %d", len(sh.Instants), n)
	}
	// Instants serialized under the lane lock with in-lock timestamps:
	// ring order is timestamp order.
	for i := 1; i < len(sh.Instants); i++ {
		if sh.Instants[i].TS < sh.Instants[i-1].TS {
			t.Fatalf("instant %d out of order", i)
		}
	}
}

// TestConcurrentSnapshot checks that snapshotting during recording is safe
// (the live /trace endpoint does exactly this).
func TestConcurrentSnapshot(t *testing.T) {
	tr := New(Options{LaneCapacity: 64})
	l := tr.Lane("driver")
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			l.Begin("work")
			l.End()
		}
		close(done)
	}()
	for {
		tr.Snapshot()
		select {
		case <-done:
			if got := len(tr.Snapshot().Lane("driver").Spans); got == 0 {
				t.Error("no spans after writer finished")
			}
			return
		default:
		}
	}
}
