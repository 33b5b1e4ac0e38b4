// Package workpool provides a persistent, process-wide worker pool for the
// data-parallel loops of the science stack (solver tendencies, diagnostics,
// rasterization).
//
// The pool is one FIFO queue of fan-outs guarded by one mutex. A fan-out
// publishes every chunk but its last as a single queue entry, and pool
// workers and waiting callers claim chunks in order from the queue head; a
// fan-out leaves the queue with its last claim. Idle workers park on a
// condition variable and waiters park on the fan-out's completion signal,
// so an idle pool burns no cycles.
//
// The pool preserves the determinism contract of the loops it runs: a Loop
// over [0, n) splits into the same contiguous chunks regardless of pool
// width — ceil(n/chunks) sizing at ascending offsets, every index processed
// exactly once, chunks disjoint — so loop bodies that write only their own
// indices produce bit-identical results at any worker count, including the
// degenerate single-worker pool, which executes the identical chunk
// sequence inline on the caller.
//
// RunLoops fuses several independent loops into one fan-out sharing a
// single barrier: the solver uses it to co-schedule loops over different
// index spaces (cells and vertices, cells and edges) that would otherwise
// pay one full publish/park/wake cycle each.
//
// Nested calls are safe: a waiter first executes its own fan-out's final
// chunk, then claims chunks from the queue head (its own or another
// fan-out's); it parks only once the queue is empty, which means every
// chunk it still waits for is already running on another goroutine, whose
// completion signal will wake it. Wait chains therefore follow
// loop-nesting depth and always bottom out.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Loop describes one data-parallel loop of a fan-out: Fn is invoked over
// [0, N) split into Chunks contiguous chunks (values < 1 mean one chunk).
// Loops fused into one RunLoops call must be mutually independent — bodies
// may not read what a sibling loop writes, because chunks of all loops
// execute concurrently under one barrier.
type Loop struct {
	N      int
	Chunks int
	Fn     func(lo, hi int)
}

// geometry returns the loop's chunk size, ceil(N/Chunks) with Chunks
// clamped to [1, N], and the number of chunks that size cuts [0, N) into —
// possibly fewer than Chunks (N=10, Chunks=6 cuts five). Publisher, claim
// cursor and barrier all count from here, so a fan-out waits for exactly
// the chunks it cuts.
func (l Loop) geometry() (size, count int) {
	if l.N <= 0 {
		return 0, 0
	}
	c := min(max(l.Chunks, 1), l.N)
	size = (l.N + c - 1) / c
	return size, (l.N + size - 1) / size
}

// chunk is one claimed contiguous chunk of a fan-out.
type chunk struct {
	fn     func(lo, hi int)
	lo, hi int
	job    *job
}

func (c chunk) run() {
	c.fn(c.lo, c.hi)
	c.job.finish()
}

// job is one fan-out: its loops, the claim cursor over its published
// chunks, and its completion barrier. The cursor and queue link are guarded
// by the pool's idleMu. pending counts unfinished published chunks; the
// goroutine that brings it to zero signals done. The channel is buffered
// and never closed, so a stale signal left by a recycled job merely causes
// one spurious wakeup, which the waiter absorbs by rechecking pending.
type job struct {
	loops   []Loop // the fan-out's non-empty loops, copied from the caller
	loop    int    // loop of the next unclaimed chunk
	lo      int    // start of the next unclaimed chunk
	left    int    // published chunks not yet claimed
	next    *job   // queue link
	pending atomic.Int64
	done    chan struct{}
}

// jobPool recycles fan-outs so a steady-state fan-out performs no heap
// allocation.
var jobPool = sync.Pool{New: func() any { return &job{done: make(chan struct{}, 1)} }}

// finish marks one published chunk complete, signaling the waiter when it
// was the last.
func (j *job) finish() {
	if j.pending.Add(-1) == 0 {
		select {
		case j.done <- struct{}{}:
		default:
		}
	}
}

// pool is the process-wide pool instance. A single-worker pool (one
// processor, or SetLimit(1)) spawns no goroutines at all: fan-outs execute
// their chunk sequence inline on the caller.
type pool struct {
	idleMu     sync.Mutex
	idleCond   *sync.Cond
	head, tail *job // fan-outs with unclaimed chunks, oldest first
	queued     int  // unclaimed chunks across the queue
	parked     int  // workers waiting on idleCond
	stopped    bool // set by shutdown (tests); workers drain, then exit

	workers int
	single  bool
	wg      sync.WaitGroup
}

var (
	poolMu  sync.Mutex
	current atomic.Pointer[pool]
	limit   atomic.Int64 // configured worker cap; 0 = GOMAXPROCS
)

// Pool activity counters, maintained with single atomic operations per
// chunk so instrumentation never adds an allocation to the hot path. The
// pool is process-wide, so these are lifetime totals; per-run accounting
// diffs two Stats snapshots (see Snapshot). The high-water mark is written
// only under idleMu, which every publish holds anyway.
var (
	statSubmitted atomic.Int64 // chunks published to the queue
	statInline    atomic.Int64 // chunks executed directly on the caller
	statHelped    atomic.Int64 // chunks claimed by a waiting caller
	statSteals    atomic.Int64 // chunks claimed from the queue
	statParks     atomic.Int64 // idle-worker and waiter park events
	statWakeups   atomic.Int64 // workers signaled out of an idle park
	statHighwater atomic.Int64 // deepest observed queue occupancy
)

// Stats is a point-in-time copy of the pool's lifetime activity.
type Stats struct {
	// Submitted counts chunks published to the queue; Inline counts
	// chunks the caller executed directly — each fan-out's final chunk,
	// and every chunk of a fan-out on a single-worker pool.
	// Submitted+Inline is the total chunk count of all fan-outs.
	Submitted int64
	Inline    int64
	// Steals counts chunks claimed from the queue, by a worker or by a
	// waiting caller; once the claimed chunks have finished it equals
	// Submitted. Helped is the subset claimed by waiting callers instead
	// of parking.
	Helped int64
	Steals int64
	// Parks counts idle-worker and waiter park events; Wakeups counts
	// workers signaled back out of an idle park by a publish. A pool that
	// parks instead of spinning shows Parks ≈ Wakeups + idle workers.
	Parks   int64
	Wakeups int64
	// QueueHighwater is the largest number of unclaimed chunks the queue
	// held at publish time.
	QueueHighwater int64
	// Workers is the pool's parallel width: the persistent worker count,
	// or 1 for a single-worker (inline) pool. Zero until the pool first
	// starts.
	Workers int64
}

// Snapshot returns the pool's lifetime activity counters. Subtract an
// earlier snapshot with Sub for per-run accounting.
func Snapshot() Stats {
	var w int64
	if p := current.Load(); p != nil {
		w = int64(p.workers)
	}
	return Stats{
		Submitted:      statSubmitted.Load(),
		Inline:         statInline.Load(),
		Helped:         statHelped.Load(),
		Steals:         statSteals.Load(),
		Parks:          statParks.Load(),
		Wakeups:        statWakeups.Load(),
		QueueHighwater: statHighwater.Load(),
		Workers:        w,
	}
}

// Sub returns the activity between an earlier snapshot prev and s. The
// queue high-water mark and worker count are not differenced — they carry
// over as the later snapshot's values.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Submitted:      s.Submitted - prev.Submitted,
		Inline:         s.Inline - prev.Inline,
		Helped:         s.Helped - prev.Helped,
		Steals:         s.Steals - prev.Steals,
		Parks:          s.Parks - prev.Parks,
		Wakeups:        s.Wakeups - prev.Wakeups,
		QueueHighwater: s.QueueHighwater,
		Workers:        s.Workers,
	}
}

// SetLimit caps the pool's worker count below GOMAXPROCS (0 restores the
// default). The cap applies when the pool next starts; it reports whether
// it took effect immediately (false means the pool is already running and
// keeps its current width).
func SetLimit(n int) bool {
	poolMu.Lock()
	defer poolMu.Unlock()
	limit.Store(int64(max(n, 0)))
	return current.Load() == nil
}

func getPool() *pool {
	if p := current.Load(); p != nil {
		return p
	}
	return startPool()
}

func startPool() *pool {
	poolMu.Lock()
	defer poolMu.Unlock()
	if p := current.Load(); p != nil {
		return p
	}
	n := runtime.GOMAXPROCS(0)
	if l := int(limit.Load()); l > 0 && l < n {
		n = l
	}
	p := &pool{workers: n, single: n <= 1}
	p.idleCond = sync.NewCond(&p.idleMu)
	if !p.single {
		p.wg.Add(n)
		for i := 0; i < n; i++ {
			go p.worker()
		}
	}
	current.Store(p)
	return p
}

// shutdown stops the current pool after its queue drains and waits for the
// workers to exit, leaving the package ready to lazily start a fresh pool.
// Callers must not have fan-outs in flight. Exposed to tests only.
func shutdown() {
	poolMu.Lock()
	defer poolMu.Unlock()
	p := current.Load()
	if p == nil {
		return
	}
	p.idleMu.Lock()
	p.stopped = true
	p.idleCond.Broadcast()
	p.idleMu.Unlock()
	p.wg.Wait()
	current.Store(nil)
}

// worker is one persistent pool goroutine: claim chunks in queue order,
// park while the queue is empty, exit once a shutdown finds it empty.
func (p *pool) worker() {
	defer p.wg.Done()
	p.idleMu.Lock()
	for {
		if c, ok := p.take(); ok {
			p.idleMu.Unlock()
			c.run()
			p.idleMu.Lock()
			continue
		}
		if p.stopped {
			p.idleMu.Unlock()
			return
		}
		p.parked++
		statParks.Add(1)
		p.idleCond.Wait()
		p.parked--
	}
}

// take claims the next chunk in queue order; the caller holds idleMu. A job
// leaves the queue with its last claim, so the queue never holds a job its
// owner may already have recycled.
func (p *pool) take() (chunk, bool) {
	j := p.head
	if j == nil {
		return chunk{}, false
	}
	l := &j.loops[j.loop]
	size, _ := l.geometry()
	c := chunk{fn: l.Fn, lo: j.lo, hi: min(j.lo+size, l.N), job: j}
	j.lo = c.hi
	if j.lo == l.N {
		j.loop++
		j.lo = 0
	}
	j.left--
	p.queued--
	if j.left == 0 {
		p.head, j.next = j.next, nil
		if p.head == nil {
			p.tail = nil
		}
	}
	statSteals.Add(1)
	return c, true
}

// publish appends j to the queue, raises the high-water mark and signals
// up to one parked worker per published chunk.
func (p *pool) publish(j *job) {
	p.idleMu.Lock()
	if p.tail == nil {
		p.head = j
	} else {
		p.tail.next = j
	}
	p.tail = j
	p.queued += j.left
	if q := int64(p.queued); q > statHighwater.Load() {
		statHighwater.Store(q)
	}
	n := min(p.parked, j.left)
	for range n {
		p.idleCond.Signal()
	}
	p.idleMu.Unlock()
	if n > 0 {
		statWakeups.Add(int64(n))
	}
}

// Run executes fn over [0, n) split into `chunks` contiguous chunks and
// returns only after every index has been processed. Chunk boundaries
// depend solely on (n, chunks): chunk size is ceil(n/chunks) at ascending
// offsets, so results remain bit-identical at any worker count for
// disjoint-write loop bodies.
func Run(n, chunks int, fn func(lo, hi int)) {
	loops := [1]Loop{{N: n, Chunks: chunks, Fn: fn}}
	RunLoops(loops[:])
}

// FirstError keeps the error of the lowest failing index of a loop whose
// chunks run concurrently. Each chunk that stops at its own first failure
// and calls Set leaves the lowest failing index overall, so a fan-out
// reports the error its serial execution would. The zero value is ready.
type FirstError struct {
	mu  sync.Mutex
	at  int
	err error
}

// Set records err as the failure at index at unless a lower index has
// already failed.
func (f *FirstError) Set(at int, err error) {
	f.mu.Lock()
	if f.err == nil || at < f.at {
		f.at, f.err = at, err
	}
	f.mu.Unlock()
}

// Err returns the error of the lowest failing index, or nil.
func (f *FirstError) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// RunLoops executes several independent loops as one fan-out under a
// single completion barrier: every chunk of every loop is published in one
// batch, chunks of different loops execute concurrently, and RunLoops
// returns only after all of them finish. Each loop keeps the exact chunk
// geometry Run would give it. On a single-worker pool the same chunk
// sequence executes inline, in loop order.
func RunLoops(loops []Loop) {
	total := 0
	for _, l := range loops {
		_, c := l.geometry()
		total += c
	}
	if total == 0 {
		return
	}
	p := getPool()
	if p.single || total == 1 {
		for _, l := range loops {
			size, c := l.geometry()
			for lo := 0; lo < l.N; lo += size {
				l.Fn(lo, min(lo+size, l.N))
			}
			statInline.Add(int64(c))
		}
		return
	}

	// Publish every chunk except the last loop's final one, which the
	// caller runs below so one chunk's work always overlaps the drain.
	j := jobPool.Get().(*job)
	for _, l := range loops {
		if l.N > 0 {
			j.loops = append(j.loops, l)
		}
	}
	final := j.loops[len(j.loops)-1]
	size, count := final.geometry()
	j.loop, j.lo, j.left = 0, 0, total-1
	j.pending.Store(int64(total - 1))
	p.publish(j)
	statSubmitted.Add(int64(total - 1))
	statInline.Add(1)

	final.Fn((count-1)*size, final.N)

	// Helping wait: while our chunks are outstanding, claim whatever the
	// queue holds (ours or another fan-out's). An empty queue means our
	// remaining chunks are running on other goroutines, so parking on the
	// completion signal is deadlock-free.
	for j.pending.Load() > 0 {
		p.idleMu.Lock()
		c, ok := p.take()
		p.idleMu.Unlock()
		if ok {
			statHelped.Add(1)
			c.run()
			continue
		}
		if j.pending.Load() <= 0 {
			break
		}
		statParks.Add(1)
		<-j.done
	}
	// Drain a completion signal the final finish may have sent after the
	// fast-path pending check, so the recycled job starts clean (a missed
	// one is harmless — see job).
	select {
	case <-j.done:
	default:
	}
	clear(j.loops)
	j.loops = j.loops[:0]
	jobPool.Put(j)
}

var (
	overheadOnce sync.Once
	overheadVal  int64
)

// OverheadNs reports the measured wall-clock cost of one fan-out through
// the pool (publish, wake, execute empty chunks, barrier), measured once on
// first call. Grain-size tuning divides it by a loop's per-index cost to
// find the smallest range worth fanning out. Single-worker pools return a
// nominal constant, since their fan-outs are inline loops.
func OverheadNs() int64 {
	overheadOnce.Do(func() {
		p := getPool()
		if p.single {
			overheadVal = 2000
			return
		}
		nop := func(lo, hi int) {}
		chunks := 2 * p.workers
		for i := 0; i < 16; i++ {
			Run(chunks, chunks, nop)
		}
		const reps = 128
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			Run(chunks, chunks, nop)
		}
		overheadVal = min(max(time.Since(t0).Nanoseconds()/reps, 500), 100_000)
	})
	return overheadVal
}
