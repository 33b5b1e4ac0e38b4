package ocean

import (
	"runtime"

	"insituviz/internal/workpool"
)

// Approximate per-index loop-body costs (ns on a contemporary core), used
// to derive each loop's grain size from the pool's measured fan-out
// overhead. They only need to be right to within a small factor: the grain
// is clamped, and chunk geometry never affects results (disjoint writes).
const (
	costDiagCells  = 45.0
	costDiagVerts  = 10.0
	costMomentum   = 55.0
	costOWProject  = 8.0
	costOWGradient = 35.0
	costUpdate     = 2.0
)

// Grain clamp bounds and the multiple of the pool's fan-out overhead a
// minimum-size chunk must amortize.
const (
	grainMin            = 256
	grainMax            = 1 << 16
	grainOverheadFactor = 4.0
)

// grainFor returns the smallest per-chunk index count worth fanning out
// for a loop whose body costs about costNs per index: the chunk's work
// must cover a few times the pool's measured per-fan-out overhead. This
// replaces the old fixed parallelMinWork=2048 threshold, which was blind
// to both the loop body and the machine.
func grainFor(costNs float64) int {
	g := int(grainOverheadFactor * float64(workpool.OverheadNs()) / costNs)
	if g < grainMin {
		g = grainMin
	}
	if g > grainMax {
		g = grainMax
	}
	return g
}

// chunksFor returns the fan-out width for a loop of n indices with the
// given grain: enough chunks for claiming to balance the workers (twice
// the worker budget), but never chunks smaller than the grain. A result of
// 1 means the loop runs serially.
func (md *Model) chunksFor(n, grain int) int {
	if md.workers <= 1 {
		return 1
	}
	maxChunks := n / grain
	if maxChunks < 2 {
		return 1
	}
	c := 2 * md.workers
	if c > maxChunks {
		c = maxChunks
	}
	return c
}

// parallelFor runs fn over [0, n) split into contiguous chunks on the
// persistent process-wide pool (workpool). Each index is processed exactly
// once and chunks are disjoint, so loops whose bodies write only to their
// own index are race-free and bit-identical to the serial execution at any
// worker count.
func (md *Model) parallelFor(n, grain int, fn func(lo, hi int)) {
	c := md.chunksFor(n, grain)
	if c <= 1 {
		fn(0, n)
		return
	}
	workpool.Run(n, c, fn)
}

// parallelPair fuses two independent loops into one fan-out sharing a
// single barrier — a tendency's cell and vertex passes, and the cell and
// edge halves of an RK4 state update, whose bodies read only operands
// fixed before the call and write disjoint outputs. The Loop headers live
// in the model's scratch so a steady-state fused fan-out allocates nothing.
func (md *Model) parallelPair(n0, g0 int, f0 func(lo, hi int), n1, g1 int, f1 func(lo, hi int)) {
	c0 := md.chunksFor(n0, g0)
	c1 := md.chunksFor(n1, g1)
	if c0 <= 1 && c1 <= 1 {
		f0(0, n0)
		f1(0, n1)
		return
	}
	md.sc.pair[0] = workpool.Loop{N: n0, Chunks: c0, Fn: f0}
	md.sc.pair[1] = workpool.Loop{N: n1, Chunks: c1, Fn: f1}
	workpool.RunLoops(md.sc.pair[:])
}

// resolveWorkers maps a configured worker count to an effective one.
func resolveWorkers(cfg int) int {
	if cfg < 0 {
		return 1
	}
	if cfg == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg
}
