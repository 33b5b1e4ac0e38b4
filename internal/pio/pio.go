// Package pio models the parallel I/O middleware the paper's
// post-processing pipeline writes through (PIO over parallel-netCDF):
// a block decomposition of global fields across compute ranks, and a
// rank-to-aggregator rearrangement in which a small set of I/O aggregator
// ranks collect the blocks and perform the actual file writes. The
// functional path really gathers data (concurrently, one goroutine per
// aggregator, standing in for MPI gather) and the accounting path reports
// how many bytes crossed each stage — the off-node data movement the
// paper's power analysis centers on.
package pio

import (
	"fmt"
	"sync"

	"insituviz/internal/units"
)

// Decomposition is a contiguous block decomposition of a global
// one-dimensional index space across compute ranks, the layout MPAS uses
// for cell-centered fields.
type Decomposition struct {
	globalLen int
	starts    []int // starts[r] .. starts[r+1] is rank r's block
}

// NewDecomposition splits globalLen indices across nRanks ranks as evenly
// as possible.
func NewDecomposition(globalLen, nRanks int) (*Decomposition, error) {
	if globalLen <= 0 {
		return nil, fmt.Errorf("pio: non-positive global length %d", globalLen)
	}
	if nRanks <= 0 {
		return nil, fmt.Errorf("pio: non-positive rank count %d", nRanks)
	}
	if nRanks > globalLen {
		return nil, fmt.Errorf("pio: more ranks (%d) than elements (%d)", nRanks, globalLen)
	}
	d := &Decomposition{globalLen: globalLen, starts: make([]int, nRanks+1)}
	per := globalLen / nRanks
	extra := globalLen % nRanks
	pos := 0
	for r := 0; r < nRanks; r++ {
		d.starts[r] = pos
		pos += per
		if r < extra {
			pos++
		}
	}
	d.starts[nRanks] = pos
	return d, nil
}

// NRanks returns the number of compute ranks.
func (d *Decomposition) NRanks() int { return len(d.starts) - 1 }

// GlobalLen returns the global element count.
func (d *Decomposition) GlobalLen() int { return d.globalLen }

// Range returns rank r's half-open global index range [start, end).
func (d *Decomposition) Range(r int) (start, end int, err error) {
	if r < 0 || r >= d.NRanks() {
		return 0, 0, fmt.Errorf("pio: rank %d out of range [0,%d)", r, d.NRanks())
	}
	return d.starts[r], d.starts[r+1], nil
}

// Scatter splits a global field into per-rank blocks (views into global —
// callers that mutate blocks should copy).
func (d *Decomposition) Scatter(global []float64) ([][]float64, error) {
	if len(global) != d.globalLen {
		return nil, fmt.Errorf("pio: field length %d, decomposition expects %d", len(global), d.globalLen)
	}
	parts := make([][]float64, d.NRanks())
	for r := range parts {
		parts[r] = global[d.starts[r]:d.starts[r+1]]
	}
	return parts, nil
}

// Stats describes the data movement of one aggregated write.
type Stats struct {
	RankToAggBytes units.Bytes // bytes rearranged from compute ranks to aggregators
	AggToDiskBytes units.Bytes // bytes the aggregators committed to storage
	Aggregators    int
	MaxFanIn       int // largest number of compute ranks feeding one aggregator
}

// Plan assigns compute ranks to I/O aggregators. Ranks are grouped
// contiguously so each aggregator assembles one contiguous span of the
// global index space, as PIO's box rearranger does.
type Plan struct {
	dec   *Decomposition
	aggOf []int // aggregator index per rank
	nAgg  int
}

// NewPlan builds an aggregation plan with the given number of aggregators
// (clamped to the rank count; at least 1).
func NewPlan(dec *Decomposition, aggregators int) (*Plan, error) {
	if dec == nil {
		return nil, fmt.Errorf("pio: nil decomposition")
	}
	if aggregators <= 0 {
		return nil, fmt.Errorf("pio: non-positive aggregator count %d", aggregators)
	}
	n := dec.NRanks()
	if aggregators > n {
		aggregators = n
	}
	p := &Plan{dec: dec, aggOf: make([]int, n), nAgg: aggregators}
	per := n / aggregators
	extra := n % aggregators
	rank := 0
	for a := 0; a < aggregators; a++ {
		cnt := per
		if a < extra {
			cnt++
		}
		for k := 0; k < cnt; k++ {
			p.aggOf[rank] = a
			rank++
		}
	}
	return p, nil
}

// AggregatorOf returns the aggregator assigned to rank r.
func (p *Plan) AggregatorOf(r int) (int, error) {
	if r < 0 || r >= len(p.aggOf) {
		return 0, fmt.Errorf("pio: rank %d out of range [0,%d)", r, len(p.aggOf))
	}
	return p.aggOf[r], nil
}

// Gather assembles per-rank blocks into a freshly allocated global field,
// one goroutine per aggregator (the MPI rearrangement stage), and reports
// the movement statistics for an element width of elemBytes bytes.
func (p *Plan) Gather(parts [][]float64, elemBytes int) ([]float64, Stats, error) {
	if len(parts) != p.dec.NRanks() {
		return nil, Stats{}, fmt.Errorf("pio: %d blocks for %d ranks", len(parts), p.dec.NRanks())
	}
	if elemBytes <= 0 {
		return nil, Stats{}, fmt.Errorf("pio: non-positive element width %d", elemBytes)
	}
	for r, blk := range parts {
		if len(blk) != p.dec.starts[r+1]-p.dec.starts[r] {
			return nil, Stats{}, fmt.Errorf("pio: rank %d block has %d elements, want %d",
				r, len(blk), p.dec.starts[r+1]-p.dec.starts[r])
		}
	}
	global := make([]float64, p.dec.globalLen)

	ranksOf := make([][]int, p.nAgg)
	for r, a := range p.aggOf {
		ranksOf[a] = append(ranksOf[a], r)
	}
	var wg sync.WaitGroup
	for a := 0; a < p.nAgg; a++ {
		wg.Add(1)
		go func(ranks []int) {
			defer wg.Done()
			for _, r := range ranks {
				copy(global[p.dec.starts[r]:p.dec.starts[r+1]], parts[r])
			}
		}(ranksOf[a])
	}
	wg.Wait()

	st := Stats{Aggregators: p.nAgg}
	for a := 0; a < p.nAgg; a++ {
		if len(ranksOf[a]) > st.MaxFanIn {
			st.MaxFanIn = len(ranksOf[a])
		}
		for _, r := range ranksOf[a] {
			if p.aggOf[r] != a {
				continue
			}
			// Rank-local data destined for its own aggregator still crosses
			// the node boundary unless rank == aggregator lead; we charge
			// all non-lead traffic, matching PIO accounting.
			if r != ranks0(ranksOf[a]) {
				st.RankToAggBytes += units.Bytes(len(parts[r]) * elemBytes)
			}
		}
	}
	st.AggToDiskBytes = units.Bytes(p.dec.globalLen * elemBytes)
	return global, st, nil
}

func ranks0(ranks []int) int {
	if len(ranks) == 0 {
		return -1
	}
	return ranks[0]
}
