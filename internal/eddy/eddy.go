// Package eddy implements the analysis half of the paper's visualization
// task: identifying and tracking ocean eddies from the Okubo-Weiss field
// (Woodring et al., "In Situ Eddy Analysis in a High-Resolution Ocean
// Climate Model"). Eddies are connected regions of rotation-dominated flow
// (W below a negative threshold); the tracker links detections across
// timesteps into tracks, since eddies persist for hundreds of days while
// traveling hundreds of kilometers — the reason the paper's what-if analysis
// cares about daily or hourly output sampling.
package eddy

import (
	"fmt"
	"math"
	"sort"

	"insituviz/internal/mesh"
)

// Eddy is one connected rotation-dominated region detected in a single
// timestep.
type Eddy struct {
	Cells    []int     // mesh cell indices, sorted ascending
	Area     float64   // total area (m^2)
	Centroid mesh.Vec3 // area-weighted unit centroid direction
	Lat, Lon float64   // geographic centroid (radians)
	MinW     float64   // most negative Okubo-Weiss value in the region
}

// Detect finds all connected components of cells whose Okubo-Weiss value is
// below threshold (which must be negative for a physically meaningful
// detection), discarding components smaller than minCells cells. Results
// are ordered by descending area.
func Detect(m *mesh.Mesh, w []float64, threshold float64, minCells int) ([]Eddy, error) {
	if len(w) != m.NCells() {
		return nil, fmt.Errorf("eddy: field has %d cells, mesh has %d", len(w), m.NCells())
	}
	if threshold >= 0 {
		return nil, fmt.Errorf("eddy: threshold must be negative, got %g", threshold)
	}
	if minCells < 1 {
		minCells = 1
	}
	visited := make([]bool, m.NCells())
	var out []Eddy
	var stack []int
	for start := range m.Cells {
		if visited[start] || w[start] >= threshold {
			continue
		}
		// Flood fill the component.
		stack = stack[:0]
		stack = append(stack, start)
		visited[start] = true
		var comp []int
		for len(stack) > 0 {
			ci := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, ci)
			for _, nb := range m.Cells[ci].Neighbors {
				if !visited[nb] && w[nb] < threshold {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if len(comp) < minCells {
			continue
		}
		sort.Ints(comp)
		e := Eddy{Cells: comp, MinW: math.Inf(1)}
		var centroid mesh.Vec3
		for _, ci := range comp {
			c := &m.Cells[ci]
			e.Area += c.Area
			centroid = centroid.Add(c.Center.Scale(c.Area))
			if w[ci] < e.MinW {
				e.MinW = w[ci]
			}
		}
		e.Centroid = centroid.Normalize()
		e.Lat, e.Lon = e.Centroid.LatLon()
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Area != out[j].Area {
			return out[i].Area > out[j].Area
		}
		return out[i].Cells[0] < out[j].Cells[0] // deterministic tie-break
	})
	return out, nil
}

// Spin classifies an eddy's rotation sense.
type Spin int

// Spin values. Cyclonic rotation is counterclockwise in the northern
// hemisphere (positive relative vorticity) and clockwise in the southern.
const (
	SpinUnknown Spin = iota
	SpinCyclonic
	SpinAnticyclonic
)

// String names the spin.
func (s Spin) String() string {
	switch s {
	case SpinCyclonic:
		return "cyclonic"
	case SpinAnticyclonic:
		return "anticyclonic"
	}
	return "unknown"
}

// ClassifySpin determines an eddy's rotation sense from the cell-centered
// relative vorticity field, accounting for the hemisphere of its centroid.
func ClassifySpin(m *mesh.Mesh, e Eddy, cellVorticity []float64) (Spin, error) {
	if len(cellVorticity) != m.NCells() {
		return SpinUnknown, fmt.Errorf("eddy: vorticity field has %d cells, mesh has %d",
			len(cellVorticity), m.NCells())
	}
	if len(e.Cells) == 0 {
		return SpinUnknown, fmt.Errorf("eddy: empty eddy")
	}
	var num, den float64
	for _, ci := range e.Cells {
		if ci < 0 || ci >= m.NCells() {
			return SpinUnknown, fmt.Errorf("eddy: cell %d out of range", ci)
		}
		a := m.Cells[ci].Area
		num += cellVorticity[ci] * a
		den += a
	}
	meanVort := num / den
	if meanVort == 0 {
		return SpinUnknown, nil
	}
	northern := e.Lat >= 0
	if (meanVort > 0) == northern {
		return SpinCyclonic, nil
	}
	return SpinAnticyclonic, nil
}
