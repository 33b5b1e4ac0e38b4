package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory: one per workload phase
// and one per timed probe call, all children of the workload span, all
// sharing the workload id. It is written as a Chrome trace-event file when
// the run ends. A nil recorder (untraced run) records nothing.
type recorder struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []spanRec
}

type spanRec struct {
	name       string
	start, end time.Duration // since t0
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{name, start.Sub(r.t0), end.Sub(r.t0)})
	r.mu.Unlock()
}

type openSpan struct {
	r     *recorder
	name  string
	start time.Time
}

func (r *recorder) begin(name string) openSpan { return openSpan{r, name, time.Now()} }
func (s openSpan) end()                        { s.r.add(s.name, s.start, time.Now()) }

// writeChrome writes the spans in Chrome trace-event format (open in
// Perfetto or chrome://tracing): one lane per layer, the workload span on
// lane 0.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.mu.Lock()
	defer r.mu.Unlock()
	events := []event{{Name: r.workload, Ph: "X", TS: 0, Dur: us(time.Since(r.t0)), PID: 1, TID: 0,
		Args: map[string]any{"workload_id": r.workload}}}
	lanes := map[string]int{}
	for _, s := range r.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		tid, ok := lanes[layer]
		if !ok {
			tid = len(lanes) + 1
			lanes[layer] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": layer}})
		}
		events = append(events, event{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: tid,
			Args: map[string]any{"parent": r.workload, "workload_id": r.workload}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Probe sizing. The ISSUE asks for 200 timed calls after 20 warm-up calls;
// the time boxes cap slow probes (a 150 ms mesh build) so a traced run
// still fits its slot in the driver's schedule.
const (
	probeWarmCalls = 20
	probeCalls     = 200
	probeMinCalls  = 3
)

// probe times calls of fn — a call into one layer's public functions —
// and returns the median call time in seconds. Each timed call is one
// span named stem. prep, when non-nil, runs before every call outside the
// timed region.
func (r *run) probe(stem string, prep, fn func()) float64 {
	call := func() (time.Time, time.Time) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		return t0, time.Now()
	}
	box := r.b.size.probeBox
	warmStart := time.Now()
	for i := 0; i < probeWarmCalls && (i == 0 || time.Since(warmStart) < box/4); i++ {
		call()
	}
	var secs []float64
	start := time.Now()
	for i := 0; i < probeCalls && (i < probeMinCalls || time.Since(start) < box); i++ {
		t0, t1 := call()
		r.rec.add(stem, t0, t1)
		secs = append(secs, t1.Sub(t0).Seconds())
	}
	return median(secs)
}

// allocsPerCall is the mean number of heap allocations one call of fn
// makes, measured over n calls after one warm-up call.
func allocsPerCall(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
