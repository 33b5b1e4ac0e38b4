package cinemaserve

import (
	"sync"
	"sync/atomic"
	"time"

	"insituviz/internal/telemetry"
	"insituviz/internal/workpool"
)

// DefaultScrubBudget bounds how many frame bytes one scrub sweep may
// read from disk: enough to cover a typical store in a few sweeps
// without competing with foreground reads for the whole interval.
const DefaultScrubBudget = 64 << 20

// ScrubStats summarizes one scrub sweep.
type ScrubStats struct {
	// Frames and Bytes count the frames actually re-read and verified.
	Frames int
	Bytes  int64
	// Quarantined counts frames this sweep found divergent.
	Quarantined int
	// Errors counts frames that could not be read at all (an
	// availability problem, left to the serve path's breaker).
	Errors int
}

// scrubState is the background scrubber's cursor and telemetry. The
// cursor persists across sweeps so successive bounded sweeps cover the
// whole mounted corpus round-robin instead of re-reading the front.
type scrubState struct {
	mu    sync.Mutex
	mount int // cursor: mount index
	entry int // cursor: entry index within that mount

	stop chan struct{}
	done chan struct{}

	mSweeps *telemetry.Counter
	mFrames *telemetry.Counter
	mBytes  *telemetry.Counter
	mQuar   *telemetry.Counter
	mErrors *telemetry.Counter
}

func (sc *scrubState) init(reg *telemetry.Registry) {
	sc.mSweeps = reg.Counter("scrub.sweeps")
	sc.mFrames = reg.Counter("scrub.frames")
	sc.mBytes = reg.Counter("scrub.bytes")
	sc.mQuar = reg.Counter("scrub.quarantined")
	sc.mErrors = reg.Counter("scrub.errors")
}

// ScrubOnce runs one bounded scrub sweep: starting from the persistent
// cursor it walks the mounted stores in canonical order, selects frames
// that are not cache-resident (a resident frame was verified when it was
// filled), and re-reads + re-verifies up to budget bytes of them through
// the shared workpool. Divergent frames are quarantined in memory and
// counted under both scrub.quarantined and the serve-wide corrupt
// counter; frames that verify clean clear any prior quarantine, which is
// how a frame repaired on disk (by the cluster gateway) re-enters
// service. budget <= 0 selects DefaultScrubBudget.
//
// Safe to call concurrently with serving; sweeps themselves are
// serialized by the cursor lock.
func (s *Server) ScrubOnce(budget int64) ScrubStats {
	if budget <= 0 {
		budget = DefaultScrubBudget
	}
	s.mu.RLock()
	mounts := append([]*mount(nil), s.mounts...)
	s.mu.RUnlock()
	if len(mounts) == 0 {
		return ScrubStats{}
	}

	sc := &s.scrub
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.mSweeps.Inc()

	total := 0
	for _, m := range mounts {
		total += m.store.Len()
	}
	if sc.mount >= len(mounts) {
		sc.mount, sc.entry = 0, 0
	}

	var (
		batch []cacheKey // mount IDs index mounts: Mount only appends
		cost  int64
	)
	for visited := 0; visited < total && cost < budget; visited++ {
		// Normalize the cursor onto a mount with entries left; total > 0
		// guarantees one exists within len(mounts) hops.
		for mounts[sc.mount].store.Len() == 0 || sc.entry >= mounts[sc.mount].store.Len() {
			sc.mount = (sc.mount + 1) % len(mounts)
			sc.entry = 0
		}
		m := mounts[sc.mount]
		idx := sc.entry
		sc.entry++
		e := m.store.EntryAt(idx)
		ck := cacheKey{mount: m.id, entry: int32(idx)}
		if s.cache.Contains(ck) {
			continue
		}
		batch = append(batch, ck)
		cost += e.Bytes
	}
	if len(batch) == 0 {
		return ScrubStats{}
	}

	var frames, quarantined, readErrs int64
	var bytesRead int64
	workpool.Run(len(batch), len(batch), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_, n, err := s.readVerified(mounts[batch[i].mount], int(batch[i].entry), nil)
			switch {
			case isCorrupt(err):
				atomic.AddInt64(&quarantined, 1)
			case err != nil:
				atomic.AddInt64(&readErrs, 1)
				continue
			}
			atomic.AddInt64(&frames, 1)
			atomic.AddInt64(&bytesRead, int64(n))
		}
	})

	sc.mFrames.Add(frames)
	sc.mBytes.Add(bytesRead)
	sc.mQuar.Add(quarantined)
	sc.mErrors.Add(readErrs)
	return ScrubStats{
		Frames: int(frames), Bytes: bytesRead,
		Quarantined: int(quarantined), Errors: int(readErrs),
	}
}

// StartScrubber runs ScrubOnce every interval on a background goroutine
// until the returned stop function is called (which joins the
// goroutine). One scrubber per server; starting a second one stops the
// first.
func (s *Server) StartScrubber(interval time.Duration, budget int64) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	sc := &s.scrub
	sc.mu.Lock()
	if sc.stop != nil {
		close(sc.stop)
		done := sc.done
		sc.stop, sc.done = nil, nil
		sc.mu.Unlock()
		<-done
		sc.mu.Lock()
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	sc.stop, sc.done = stopCh, doneCh
	sc.mu.Unlock()

	go func() {
		defer close(doneCh)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				s.ScrubOnce(budget)
			}
		}
	}()
	return func() {
		sc.mu.Lock()
		if sc.stop == stopCh {
			sc.stop, sc.done = nil, nil
		}
		sc.mu.Unlock()
		close(stopCh)
		<-doneCh
	}
}
