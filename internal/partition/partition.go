// Package partition decomposes the unstructured mesh across ranks the way
// MPAS distributes its Voronoi cells across MPI processes: spatially
// compact, load-balanced blocks produced by recursive coordinate bisection
// (RCB), plus the halo (ghost-cell) analysis that determines how many
// bytes each rank exchanges with its neighbors every timestep — the
// on-fabric data movement that feeds the interconnect model.
package partition

import (
	"fmt"
	"sort"

	"insituviz/internal/mesh"
)

// Partition assigns every cell of a mesh to one of nParts ranks.
type Partition struct {
	m      *mesh.Mesh
	nParts int
	owner  []int
	cells  [][]int
}

// New builds a balanced spatial partition of m into nParts parts using
// recursive coordinate bisection on the cell centers.
func New(m *mesh.Mesh, nParts int) (*Partition, error) {
	if m == nil || m.NCells() == 0 {
		return nil, fmt.Errorf("partition: nil or empty mesh")
	}
	if nParts < 1 {
		return nil, fmt.Errorf("partition: non-positive part count %d", nParts)
	}
	if nParts > m.NCells() {
		return nil, fmt.Errorf("partition: more parts (%d) than cells (%d)", nParts, m.NCells())
	}
	p := &Partition{m: m, nParts: nParts, owner: make([]int, m.NCells())}
	ids := make([]int, m.NCells())
	for i := range ids {
		ids[i] = i
	}
	p.bisect(ids, 0, nParts)
	p.cells = make([][]int, nParts)
	for ci, o := range p.owner {
		p.cells[o] = append(p.cells[o], ci)
	}
	return p, nil
}

// bisect assigns parts [firstPart, firstPart+parts) to the given cells.
func (p *Partition) bisect(ids []int, firstPart, parts int) {
	if parts == 1 {
		for _, ci := range ids {
			p.owner[ci] = firstPart
		}
		return
	}
	// Split the part range and the cell set proportionally.
	leftParts := parts / 2
	rightParts := parts - leftParts
	nLeft := len(ids) * leftParts / parts

	// Choose the coordinate axis with the largest spread.
	axis := p.widestAxis(ids)
	sort.Slice(ids, func(a, b int) bool {
		va := p.m.Cells[ids[a]].Center[axis]
		vb := p.m.Cells[ids[b]].Center[axis]
		if va != vb {
			return va < vb
		}
		return ids[a] < ids[b] // deterministic tie-break
	})
	p.bisect(ids[:nLeft], firstPart, leftParts)
	p.bisect(ids[nLeft:], firstPart+leftParts, rightParts)
}

func (p *Partition) widestAxis(ids []int) int {
	var min, max [3]float64
	for k := 0; k < 3; k++ {
		min[k], max[k] = 2, -2
	}
	for _, ci := range ids {
		c := p.m.Cells[ci].Center
		for k := 0; k < 3; k++ {
			if c[k] < min[k] {
				min[k] = c[k]
			}
			if c[k] > max[k] {
				max[k] = c[k]
			}
		}
	}
	axis := 0
	best := max[0] - min[0]
	for k := 1; k < 3; k++ {
		if s := max[k] - min[k]; s > best {
			best, axis = s, k
		}
	}
	return axis
}

// Owner returns the part owning cell ci.
func (p *Partition) Owner(ci int) (int, error) {
	if ci < 0 || ci >= len(p.owner) {
		return 0, fmt.Errorf("partition: cell %d out of range [0,%d)", ci, len(p.owner))
	}
	return p.owner[ci], nil
}

// Cells returns the cells owned by part r, ascending.
func (p *Partition) Cells(r int) ([]int, error) {
	if r < 0 || r >= p.nParts {
		return nil, fmt.Errorf("partition: part %d out of range [0,%d)", r, p.nParts)
	}
	return append([]int(nil), p.cells[r]...), nil
}

// Counts returns the cell count per part.
func (p *Partition) Counts() []int {
	out := make([]int, p.nParts)
	for r := range p.cells {
		out[r] = len(p.cells[r])
	}
	return out
}

// Masks returns one ownership mask per part, for the renderer's
// RenderOwned.
func (p *Partition) Masks() [][]bool {
	masks := make([][]bool, p.nParts)
	for r := range masks {
		mask := make([]bool, len(p.owner))
		for _, ci := range p.cells[r] {
			mask[ci] = true
		}
		masks[r] = mask
	}
	return masks
}

// Imbalance returns max/mean part size, 1.0 for a perfect balance.
func (p *Partition) Imbalance() float64 {
	counts := p.Counts()
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(len(p.owner)) / float64(p.nParts)
	return float64(max) / mean
}

// CutEdges returns the number of mesh edges whose two cells live on
// different parts — the communication graph's total edge weight.
func (p *Partition) CutEdges() int {
	cut := 0
	for ei := range p.m.Edges {
		e := &p.m.Edges[ei]
		if p.owner[e.Cells[0]] != p.owner[e.Cells[1]] {
			cut++
		}
	}
	return cut
}

// HaloCells returns the ghost cells of part r: cells owned elsewhere that
// share an edge with r's cells, ascending.
func (p *Partition) HaloCells(r int) ([]int, error) {
	if r < 0 || r >= p.nParts {
		return nil, fmt.Errorf("partition: part %d out of range [0,%d)", r, p.nParts)
	}
	seen := map[int]bool{}
	for _, ci := range p.cells[r] {
		for _, nb := range p.m.Cells[ci].Neighbors {
			if p.owner[nb] != r && !seen[nb] {
				seen[nb] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for ci := range seen {
		out = append(out, ci)
	}
	sort.Ints(out)
	return out, nil
}

// ExchangeStats summarizes one timestep's halo exchange.
type ExchangeStats struct {
	TotalGhosts   int // sum of per-part halo sizes
	MaxGhosts     int // largest per-part halo
	CutEdges      int
	BytesPerField int64 // total bytes moved to refresh one 8-byte field
}

// Exchange computes the halo-exchange volume of the partition: every part
// receives each of its ghost cells once per field refresh.
func (p *Partition) Exchange() ExchangeStats {
	st := ExchangeStats{CutEdges: p.CutEdges()}
	for r := 0; r < p.nParts; r++ {
		halo, err := p.HaloCells(r)
		if err != nil {
			continue // unreachable: r is in range
		}
		st.TotalGhosts += len(halo)
		if len(halo) > st.MaxGhosts {
			st.MaxGhosts = len(halo)
		}
	}
	st.BytesPerField = int64(st.TotalGhosts) * 8
	return st
}
