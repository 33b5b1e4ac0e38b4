package workpool

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insituviz/internal/leakcheck"
)

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, chunks := range []int{1, 2, 3, 4, 7, 16, 100} {
		hits := make([]int32, 10000)
		Run(len(hits), chunks, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i := range hits {
			if hits[i] != 1 {
				t.Fatalf("chunks=%d: index %d visited %d times", chunks, i, hits[i])
			}
		}
	}
}

func TestRunSmallAndDegenerateRanges(t *testing.T) {
	ran := false
	Run(0, 4, func(lo, hi int) { ran = true })
	if ran {
		t.Error("Run(0, ...) must not invoke fn")
	}
	hits := make([]int32, 3)
	Run(len(hits), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestRunChunkBoundariesDeterministic asserts the exact chunk geometry the
// solver's bit-determinism depends on: ceil(n/chunks) sizing at ascending
// offsets, independent of scheduling and of the pool's worker count (a
// single-worker pool executes the identical chunk sequence inline).
func TestRunChunkBoundariesDeterministic(t *testing.T) {
	n, chunks := 10007, 4
	want := make(map[int]int) // lo -> hi
	size := (n + chunks - 1) / chunks
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		want[lo] = hi
	}
	var mu sync.Mutex
	got := make(map[int]int)
	Run(n, chunks, func(lo, hi int) {
		mu.Lock()
		got[lo] = hi
		mu.Unlock()
	})
	if len(got) != len(want) {
		t.Fatalf("got %d chunks, want %d", len(got), len(want))
	}
	for lo, hi := range want {
		if got[lo] != hi {
			t.Errorf("chunk at %d: got hi %d, want %d", lo, got[lo], hi)
		}
	}
}

// TestRunLoopsCoversAllLoops drives a fused fan-out over loops with
// different index spaces and chunk counts — the solver's
// continuity+momentum shape — and checks every index of every loop is
// visited exactly once while keeping each loop's Run chunk geometry.
func TestRunLoopsCoversAllLoops(t *testing.T) {
	a := make([]int32, 10242)
	b := make([]int32, 30720)
	var aChunks, bChunks atomic.Int32
	loops := []Loop{
		{N: len(a), Chunks: 3, Fn: func(lo, hi int) {
			aChunks.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&a[i], 1)
			}
		}},
		{N: len(b), Chunks: 5, Fn: func(lo, hi int) {
			bChunks.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&b[i], 1)
			}
		}},
	}
	RunLoops(loops)
	for i := range a {
		if a[i] != 1 {
			t.Fatalf("loop a index %d visited %d times", i, a[i])
		}
	}
	for i := range b {
		if b[i] != 1 {
			t.Fatalf("loop b index %d visited %d times", i, b[i])
		}
	}
	if aChunks.Load() != 3 || bChunks.Load() != 5 {
		t.Errorf("chunk counts = %d/%d, want 3/5", aChunks.Load(), bChunks.Load())
	}
}

// TestRunLoopsDegenerate covers empty and single-chunk members of a fused
// fan-out.
func TestRunLoopsDegenerate(t *testing.T) {
	RunLoops(nil)
	RunLoops([]Loop{{N: 0, Chunks: 4, Fn: func(lo, hi int) { t.Error("empty loop ran") }}})
	hits := make([]int32, 100)
	RunLoops([]Loop{
		{N: 0, Chunks: 2, Fn: func(lo, hi int) { t.Error("empty loop ran") }},
		{N: len(hits), Chunks: 0, Fn: func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		}},
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

// TestRunNested drives Run from inside Run bodies, the pattern a pool
// worker triggers when a parallel loop's body itself fans out. The helping
// wait must keep this deadlock-free and still cover every index.
func TestRunNested(t *testing.T) {
	const outer, inner = 8, 4096
	hits := make([][]int32, outer)
	for i := range hits {
		hits[i] = make([]int32, inner)
	}
	Run(outer, outer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := hits[i]
			Run(inner, 4, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					atomic.AddInt32(&row[j], 1)
				}
			})
		}
	})
	for i := range hits {
		for j := range hits[i] {
			if hits[i][j] != 1 {
				t.Fatalf("nested index (%d,%d) visited %d times", i, j, hits[i][j])
			}
		}
	}
}

// TestRunConcurrentCallers exercises independent goroutines sharing the
// pool simultaneously. The leak check proves a Run leaves nothing behind
// but the pool's own persistent workers (which it ignores by name).
func TestRunConcurrentCallers(t *testing.T) {
	defer leakcheck.Check(t)()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := make([]int32, 5000)
			for rep := 0; rep < 20; rep++ {
				Run(len(hits), 4, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
			}
			for i := range hits {
				if hits[i] != 20 {
					t.Errorf("index %d visited %d times, want 20", i, hits[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunStressNestedConcurrent is the -race stress test of the satellite
// checklist: many goroutines fan out simultaneously, every fan-out body
// issues nested fan-outs (so pool workers become waiters mid-chunk), and
// fused multi-loop fan-outs are mixed in. Any lost wakeup, double
// execution, or publish/steal race shows up as a count mismatch, a data
// race, or a hang.
func TestRunStressNestedConcurrent(t *testing.T) {
	const goroutines = 12
	const reps = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outer := make([]int32, 64)
			inner := make([]int32, 2000)
			outerChunks := 4 + g%3
			for rep := 0; rep < reps; rep++ {
				for i := range outer {
					outer[i] = 0
				}
				for i := range inner {
					inner[i] = 0
				}
				Run(len(outer), outerChunks, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&outer[i], 1)
					}
					Run(len(inner)/8, 2, func(lo, hi int) {
						for j := lo; j < hi; j++ {
							atomic.AddInt32(&inner[j], 1)
						}
					})
				})
				RunLoops([]Loop{
					{N: len(inner), Chunks: 3, Fn: func(lo, hi int) {
						for j := lo; j < hi; j++ {
							atomic.AddInt32(&inner[j], 1)
						}
					}},
					{N: len(outer), Chunks: 2, Fn: func(lo, hi int) {
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&outer[i], 1)
						}
					}},
				})
				for i := range outer {
					if outer[i] != 2 {
						t.Errorf("outer[%d] = %d, want 2", i, outer[i])
						return
					}
				}
				for j := range inner {
					// The nested fan-out runs once per outer chunk; the
					// fused fan-out touches every index once more.
					want := int32(1)
					if j < len(inner)/8 {
						want = int32(outerChunks) + 1
					}
					if inner[j] != want {
						t.Errorf("inner[%d] = %d, want %d", j, inner[j], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// shortCuts are (n, chunks) pairs whose chunk size ceil(n/chunks) cuts
// fewer chunks than requested — (10, 6) cuts five chunks of two — so a
// barrier that counts the requested chunks waits for chunks never cut.
var shortCuts = []struct{ n, chunks int }{{10, 6}, {12, 8}, {20, 16}, {48, 32}}

// within runs f and fails the test if it has not returned after 5 s, so a
// hung barrier fails the test instead of hanging the suite.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

// countingLoop returns a loop over hits that counts the chunks it runs.
func countingLoop(hits []int32, chunks int, ran *atomic.Int64) Loop {
	return Loop{N: len(hits), Chunks: chunks, Fn: func(lo, hi int) {
		ran.Add(1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	}}
}

// checkShortCuts drives every shortCuts pair through Run and through a
// two-loop RunLoops on the current pool: each call must return, visit
// every index once, and account exactly the chunks it ran as
// Submitted+Inline.
func checkShortCuts(t *testing.T) {
	for _, tc := range shortCuts {
		size := (tc.n + tc.chunks - 1) / tc.chunks
		cut := int64((tc.n + size - 1) / size)
		for nloops := 1; nloops <= 2; nloops++ {
			var ran atomic.Int64
			hits := make([][]int32, nloops)
			loops := make([]Loop, nloops)
			for i := range loops {
				hits[i] = make([]int32, tc.n)
				loops[i] = countingLoop(hits[i], tc.chunks, &ran)
			}
			what := fmt.Sprintf("Run(%d, %d)", tc.n, tc.chunks)
			before := Snapshot()
			if nloops == 1 {
				within(t, what, func() { Run(loops[0].N, loops[0].Chunks, loops[0].Fn) })
			} else {
				what = fmt.Sprintf("RunLoops of two (%d, %d) loops", tc.n, tc.chunks)
				within(t, what, func() { RunLoops(loops) })
			}
			delta := Snapshot().Sub(before)
			if want := int64(nloops) * cut; ran.Load() != want {
				t.Errorf("%s ran %d chunks, want %d", what, ran.Load(), want)
			}
			if got := delta.Submitted + delta.Inline; got != ran.Load() {
				t.Errorf("%s: submitted+inline = %d, but fn ran %d chunks", what, got, ran.Load())
			}
			for _, h := range hits {
				for i := range h {
					if h[i] != 1 {
						t.Fatalf("%s: index %d visited %d times", what, i, h[i])
					}
				}
			}
		}
	}
}

// TestShortCutGeometry is the regression test for a barrier that counted
// the requested chunks while the publisher cut fewer, so Run never
// returned. It runs the short-cut table on a pool of at least two workers
// and on a single-worker (inline) pool.
func TestShortCutGeometry(t *testing.T) {
	t.Run("parallel", func(t *testing.T) {
		procs := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
		shutdown()
		defer func() {
			shutdown()
			runtime.GOMAXPROCS(procs)
		}()
		checkShortCuts(t)
		if w := Snapshot().Workers; w < 2 {
			t.Fatalf("pool has %d workers, want at least 2", w)
		}
	})
	t.Run("single", func(t *testing.T) {
		shutdown()
		SetLimit(1)
		defer func() {
			shutdown()
			SetLimit(0)
		}()
		checkShortCuts(t)
		if w := Snapshot().Workers; w != 1 {
			t.Fatalf("pool has %d workers, want 1", w)
		}
	})
}

// workpoolGoroutines counts live goroutines whose stacks sit in this
// package — the persistent workers.
func workpoolGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("insituviz/internal/workpool.(*pool).worker"))
}

// TestFirstErrorKeepsLowestIndex fails every index divisible by 7 across
// many concurrent chunks, each chunk stopping at its own first failure:
// the error kept must be index 7's, whichever chunk finishes first.
func TestFirstErrorKeepsLowestIndex(t *testing.T) {
	var none FirstError
	if none.Err() != nil {
		t.Fatal("zero FirstError holds an error")
	}
	for _, chunks := range []int{1, 3, 16, 64} {
		var f FirstError
		Run(1000, chunks, func(lo, hi int) {
			for i := max(lo, 1); i < hi; i++ {
				if i%7 == 0 {
					f.Set(i, fmt.Errorf("index %d", i))
					return
				}
			}
		})
		if err := f.Err(); err == nil || err.Error() != "index 7" {
			t.Errorf("chunks=%d: error %v, want index 7", chunks, err)
		}
	}
}

// TestShutdownStopsWorkers proves idle workers park (not spin) and that
// shutdown reaps every worker goroutine; leakcheck ignores this package by
// name, so the test counts the worker frames directly.
func TestShutdownStopsWorkers(t *testing.T) {
	hits := make([]int32, 4096)
	Run(len(hits), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	p := current.Load()
	if p == nil {
		t.Fatal("pool did not start")
	}
	if p.single {
		if got := workpoolGoroutines(); got != 0 {
			t.Fatalf("single-worker pool runs %d worker goroutines, want 0", got)
		}
	} else {
		// Idle workers must end up parked on the condition variable, not
		// spinning: wait for all of them to register.
		deadline := time.Now().Add(5 * time.Second)
		for {
			p.idleMu.Lock()
			parked := p.parked
			p.idleMu.Unlock()
			if parked == p.workers {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d idle workers parked", parked, p.workers)
			}
			time.Sleep(time.Millisecond)
		}
	}
	shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for workpoolGoroutines() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker goroutines survived shutdown", workpoolGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
	// The pool must restart lazily after a shutdown.
	again := make([]int32, 4096)
	Run(len(again), 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&again[i], 1)
		}
	})
	for i, h := range again {
		if h != 1 {
			t.Fatalf("post-restart index %d visited %d times", i, h)
		}
	}
}

func BenchmarkRunFanOut(b *testing.B) {
	data := make([]float64, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(len(data), 4, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] += 1
			}
		})
	}
}

// TestStatsAccounting checks the pool's telemetry counters: every chunk of
// a fan-out is accounted as either submitted (published to a shard) or
// inline (executed directly on the caller — the final chunk, or all chunks
// on a single-worker pool), and the high-water mark reflects observed
// shard occupancy.
func TestStatsAccounting(t *testing.T) {
	before := Snapshot()
	const n, chunks = 10000, 8
	var touched [n]int32
	Run(n, chunks, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&touched[i], 1)
		}
	})
	delta := Snapshot().Sub(before)
	if got := delta.Submitted + delta.Inline; got != chunks {
		t.Errorf("submitted+inline = %d, want %d", got, chunks)
	}
	if delta.Submitted > 0 && delta.QueueHighwater < 1 {
		t.Errorf("chunks were published but high-water mark is %d", delta.QueueHighwater)
	}
	if delta.Helped < 0 || delta.Helped > delta.Submitted {
		t.Errorf("helped = %d out of %d submitted", delta.Helped, delta.Submitted)
	}
	if delta.Steals < delta.Helped {
		t.Errorf("steals = %d < helped = %d; helping pops must count as steals", delta.Steals, delta.Helped)
	}
	if delta.Workers < 1 {
		t.Errorf("workers = %d after a parallel Run", delta.Workers)
	}
	if delta.Workers > 1 && delta.Submitted != chunks-1 {
		t.Errorf("submitted = %d on a %d-worker pool, want %d", delta.Submitted, delta.Workers, chunks-1)
	}
	for i := range touched {
		if touched[i] != 1 {
			t.Fatalf("index %d touched %d times", i, touched[i])
		}
	}
}

// TestStatsRunAllocs: the instrumentation must not reintroduce per-Run
// allocations.
func TestStatsRunAllocs(t *testing.T) {
	buf := make([]int64, 65536)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[i]++
		}
	}
	Run(len(buf), 4, fn) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		Run(len(buf), 4, fn)
	})
	// Budget 2: the sync.Pool holding completion barriers may be cleared
	// by a GC between runs.
	if allocs > 2 {
		t.Errorf("instrumented Run allocates %.1f objects per call, want <= 2", allocs)
	}
}

// TestOverheadNs pins the calibration's clamp range.
func TestOverheadNs(t *testing.T) {
	ns := OverheadNs()
	if ns < 500 || ns > 100_000 {
		t.Errorf("OverheadNs = %d, want within [500, 100000]", ns)
	}
	if again := OverheadNs(); again != ns {
		t.Errorf("OverheadNs not stable: %d then %d", ns, again)
	}
}
