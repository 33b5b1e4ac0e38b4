// Package mesh builds the unstructured spherical meshes the ocean model
// runs on. MPAS-Ocean uses spherical centroidal Voronoi tessellations; we
// construct the classic icosahedral variant — a subdivided icosahedron whose
// vertices become (mostly hexagonal) Voronoi cells, with the triangle
// circumcenters as the dual vertices. The resulting structure carries the
// full primal/dual connectivity (cellsOnEdge, verticesOnEdge, edgesOnCell,
// edgesOnVertex with orientation signs) that a TRiSK-style C-grid solver
// needs.
package mesh

import (
	"fmt"
	"math"
	"sort"
)

// EarthRadius is the mean Earth radius in meters, the default sphere for
// climate-scale meshes.
const EarthRadius = 6.371e6

// Cell is a (mostly hexagonal) Voronoi cell of the primal mesh. Twelve cells
// of every icosahedral mesh are pentagons.
type Cell struct {
	Center   Vec3    // unit direction of the cell generator point
	Lat, Lon float64 // geographic coordinates of the center (radians)
	Area     float64 // spherical cell area (m^2)

	// Edges lists the indices of the cell's edges in counterclockwise
	// order. EdgeSigns[k] is +1 when the normal of Edges[k] points out of
	// this cell, -1 otherwise. Neighbors[k] is the cell across Edges[k],
	// and Vertices lists the dual vertices (cell polygon corners) in the
	// same counterclockwise order.
	Edges     []int
	EdgeSigns []int8
	Neighbors []int
	Vertices  []int
}

// Edge is a face between two Voronoi cells. Its normal direction is the
// unit tangent pointing from Cells[0] toward Cells[1]; velocity unknowns of
// the C-grid solver live here.
type Edge struct {
	Cells    [2]int  // adjacent cells; normal points 0 -> 1
	Vertices [2]int  // endpoints of the shared Voronoi face (dual vertices)
	Midpoint Vec3    // unit direction of the edge midpoint
	Normal   Vec3    // unit tangent at Midpoint, from Cells[0] to Cells[1]
	Tangent  Vec3    // unit tangent at Midpoint, 90 deg CCW from Normal
	Lat, Lon float64 // geographic coordinates of the midpoint
	Dc       float64 // great-circle distance between the two cell centers (m)
	Dv       float64 // great-circle length of the Voronoi face (m)
}

// Vertex is a corner of the Voronoi cells — equivalently, a triangle of the
// dual Delaunay mesh. Vorticity lives here in a C-grid solver.
type Vertex struct {
	Pos   Vec3    // unit direction (triangle circumcenter)
	Area  float64 // area of the dual triangle (m^2)
	Cells [3]int  // corners of the dual triangle, counterclockwise

	// Edges lists the three primal edges whose Dc segments bound the dual
	// triangle. EdgeSigns[k] is +1 when traversing Edges[k]'s normal
	// direction (cell 0 -> cell 1) is counterclockwise around this vertex.
	Edges     [3]int
	EdgeSigns [3]int8
}

// Mesh is an icosahedral spherical Voronoi mesh with full primal/dual
// connectivity.
type Mesh struct {
	Radius       float64
	Subdivisions int
	Cells        []Cell
	Edges        []Edge
	Vertices     []Vertex
}

// NCells returns the number of primal cells.
func (m *Mesh) NCells() int { return len(m.Cells) }

// NEdges returns the number of edges.
func (m *Mesh) NEdges() int { return len(m.Edges) }

// NVertices returns the number of dual vertices.
func (m *Mesh) NVertices() int { return len(m.Vertices) }

// NewIcosphere builds the icosahedral Voronoi mesh obtained from
// `subdivisions` rounds of 4-way triangle subdivision of the icosahedron,
// on a sphere of the given radius. The mesh has 10*4^s + 2 cells. Values of
// s from 3 (642 cells) to 6 (40962 cells) are typical here; s must be in
// [0, 8] to bound memory.
func NewIcosphere(subdivisions int, radius float64) (*Mesh, error) {
	if subdivisions < 0 || subdivisions > 8 {
		return nil, fmt.Errorf("mesh: subdivisions %d out of range [0, 8]", subdivisions)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("mesh: radius must be positive, got %g", radius)
	}
	pts, tris := icosahedron()
	for s := 0; s < subdivisions; s++ {
		pts, tris = subdivide(pts, tris)
	}
	m := &Mesh{Radius: radius, Subdivisions: subdivisions}
	if err := m.buildFromTriangulation(pts, tris); err != nil {
		return nil, err
	}
	return m, nil
}

// icosahedron returns the 12 unit vertices and 20 faces of a regular
// icosahedron. Faces are oriented counterclockwise seen from outside.
func icosahedron() ([]Vec3, [][3]int) {
	phi := (1 + math.Sqrt(5)) / 2
	raw := []Vec3{
		{-1, phi, 0}, {1, phi, 0}, {-1, -phi, 0}, {1, -phi, 0},
		{0, -1, phi}, {0, 1, phi}, {0, -1, -phi}, {0, 1, -phi},
		{phi, 0, -1}, {phi, 0, 1}, {-phi, 0, -1}, {-phi, 0, 1},
	}
	pts := make([]Vec3, len(raw))
	for i, p := range raw {
		pts[i] = p.Normalize()
	}
	tris := [][3]int{
		{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
		{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
		{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
		{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
	}
	// Ensure outward CCW orientation for every face.
	for i, t := range tris {
		a, b, c := pts[t[0]], pts[t[1]], pts[t[2]]
		if b.Sub(a).Cross(c.Sub(a)).Dot(a.Add(b).Add(c)) < 0 {
			tris[i] = [3]int{t[0], t[2], t[1]}
		}
	}
	return pts, tris
}

// subdivide splits each triangle into four, creating midpoint vertices
// (deduplicated per edge) projected onto the unit sphere.
func subdivide(pts []Vec3, tris [][3]int) ([]Vec3, [][3]int) {
	type ekey struct{ a, b int }
	mid := make(map[ekey]int, len(tris)*3/2)
	midpoint := func(a, b int) int {
		k := ekey{a, b}
		if a > b {
			k = ekey{b, a}
		}
		if idx, ok := mid[k]; ok {
			return idx
		}
		p := pts[a].Add(pts[b]).Normalize()
		pts = append(pts, p)
		idx := len(pts) - 1
		mid[k] = idx
		return idx
	}
	out := make([][3]int, 0, 4*len(tris))
	for _, t := range tris {
		ab := midpoint(t[0], t[1])
		bc := midpoint(t[1], t[2])
		ca := midpoint(t[2], t[0])
		out = append(out,
			[3]int{t[0], ab, ca},
			[3]int{t[1], bc, ab},
			[3]int{t[2], ca, bc},
			[3]int{ab, bc, ca},
		)
	}
	return pts, out
}

// buildFromTriangulation derives the full Voronoi mesh (cells, edges,
// vertices, orientation signs, metrics) from a spherical Delaunay
// triangulation given as points and CCW triangles.
func (m *Mesh) buildFromTriangulation(pts []Vec3, tris [][3]int) error {
	nc := len(pts)
	nv := len(tris)

	// Dual vertices: triangle circumcenters.
	m.Vertices = make([]Vertex, nv)
	for vi, t := range tris {
		a, b, c := pts[t[0]], pts[t[1]], pts[t[2]]
		cc := Circumcenter(a, b, c)
		m.Vertices[vi] = Vertex{
			Pos:   cc,
			Area:  SphericalTriangleArea(a, b, c, m.Radius),
			Cells: t,
		}
		if m.Vertices[vi].Area <= 0 {
			return fmt.Errorf("mesh: non-positive dual triangle area at vertex %d", vi)
		}
	}

	// Edges: unique triangle edges. Each is shared by exactly two triangles
	// on a closed surface.
	type ekey struct{ a, b int }
	edgeIndex := make(map[ekey]int, nv*3/2)
	canon := func(a, b int) ekey {
		if a > b {
			a, b = b, a
		}
		return ekey{a, b}
	}
	m.Edges = m.Edges[:0]
	for vi, t := range tris {
		for k := 0; k < 3; k++ {
			a, b := t[k], t[(k+1)%3]
			key := canon(a, b)
			ei, ok := edgeIndex[key]
			if !ok {
				m.Edges = append(m.Edges, Edge{
					Cells:    [2]int{key.a, key.b},
					Vertices: [2]int{-1, -1},
				})
				ei = len(m.Edges) - 1
				edgeIndex[key] = ei
			}
			e := &m.Edges[ei]
			if e.Vertices[0] == -1 {
				e.Vertices[0] = vi
			} else if e.Vertices[1] == -1 {
				e.Vertices[1] = vi
			} else {
				return fmt.Errorf("mesh: edge %d-%d shared by more than two triangles", key.a, key.b)
			}
		}
	}
	for ei := range m.Edges {
		e := &m.Edges[ei]
		if e.Vertices[1] == -1 {
			return fmt.Errorf("mesh: boundary edge %d on a closed sphere", ei)
		}
		c0, c1 := pts[e.Cells[0]], pts[e.Cells[1]]
		e.Midpoint = c0.Add(c1).Normalize()
		e.Lat, e.Lon = e.Midpoint.LatLon()
		e.Normal = ProjectToTangent(e.Midpoint, c1.Sub(c0)).Normalize()
		e.Tangent = e.Midpoint.Cross(e.Normal) // 90 deg CCW from Normal
		e.Dc = ArcLength(c0, c1, m.Radius)
		e.Dv = ArcLength(m.Vertices[e.Vertices[0]].Pos, m.Vertices[e.Vertices[1]].Pos, m.Radius)
		if e.Dc <= 0 || e.Dv <= 0 {
			return fmt.Errorf("mesh: degenerate edge %d (dc=%g, dv=%g)", ei, e.Dc, e.Dv)
		}
	}

	// Cells: for each generator point, gather incident edges and dual
	// vertices and order them counterclockwise around the center.
	cellEdges := make([][]int, nc)
	for ei := range m.Edges {
		e := &m.Edges[ei]
		cellEdges[e.Cells[0]] = append(cellEdges[e.Cells[0]], ei)
		cellEdges[e.Cells[1]] = append(cellEdges[e.Cells[1]], ei)
	}
	cellVerts := make([][]int, nc)
	for vi := range m.Vertices {
		for _, ci := range m.Vertices[vi].Cells {
			cellVerts[ci] = append(cellVerts[ci], vi)
		}
	}
	m.Cells = make([]Cell, nc)
	for ci := 0; ci < nc; ci++ {
		center := pts[ci]
		lat, lon := center.LatLon()
		c := Cell{Center: center, Lat: lat, Lon: lon}

		east, north := TangentBasis(center)
		angleOf := func(p Vec3) float64 {
			d := ProjectToTangent(center, p.Sub(center))
			return math.Atan2(d.Dot(north), d.Dot(east))
		}

		edges := append([]int(nil), cellEdges[ci]...)
		sort.Slice(edges, func(i, j int) bool {
			return angleOf(m.Edges[edges[i]].Midpoint) < angleOf(m.Edges[edges[j]].Midpoint)
		})
		verts := append([]int(nil), cellVerts[ci]...)
		sort.Slice(verts, func(i, j int) bool {
			return angleOf(m.Vertices[verts[i]].Pos) < angleOf(m.Vertices[verts[j]].Pos)
		})
		if len(edges) != len(verts) {
			return fmt.Errorf("mesh: cell %d has %d edges but %d vertices", ci, len(edges), len(verts))
		}

		c.Edges = edges
		c.Vertices = verts
		c.EdgeSigns = make([]int8, len(edges))
		c.Neighbors = make([]int, len(edges))
		for k, ei := range edges {
			e := &m.Edges[ei]
			if e.Cells[0] == ci {
				c.EdgeSigns[k] = 1
				c.Neighbors[k] = e.Cells[1]
			} else {
				c.EdgeSigns[k] = -1
				c.Neighbors[k] = e.Cells[0]
			}
		}

		corners := make([]Vec3, len(verts))
		for k, vi := range verts {
			corners[k] = m.Vertices[vi].Pos
		}
		c.Area = SphericalPolygonArea(corners, m.Radius)
		if c.Area <= 0 {
			return fmt.Errorf("mesh: non-positive area %g for cell %d", c.Area, ci)
		}
		m.Cells[ci] = c
	}

	// Vertex edge lists with circulation signs: EdgeSigns[k] = +1 when the
	// edge's cell0 -> cell1 direction is counterclockwise around the vertex.
	vertEdges := make([][]int, nv)
	for ei := range m.Edges {
		e := &m.Edges[ei]
		vertEdges[e.Vertices[0]] = append(vertEdges[e.Vertices[0]], ei)
		vertEdges[e.Vertices[1]] = append(vertEdges[e.Vertices[1]], ei)
	}
	for vi := range m.Vertices {
		v := &m.Vertices[vi]
		if len(vertEdges[vi]) != 3 {
			return fmt.Errorf("mesh: vertex %d has %d incident edges, want 3", vi, len(vertEdges[vi]))
		}
		copy(v.Edges[:], vertEdges[vi])
		for k, ei := range v.Edges {
			e := &m.Edges[ei]
			a := pts[e.Cells[0]]
			b := pts[e.Cells[1]]
			// a -> b is CCW around v iff (a x b) . v > 0.
			if a.Cross(b).Dot(v.Pos) > 0 {
				v.EdgeSigns[k] = 1
			} else {
				v.EdgeSigns[k] = -1
			}
		}
	}
	return nil
}

// NearestCell returns the index of the cell whose generator point is
// closest to the unit direction p, using a greedy walk over the Voronoi
// adjacency graph starting from `start` (pass 0 when unknown). On a Voronoi
// mesh the walk converges to the global nearest cell.
func (m *Mesh) NearestCell(p Vec3, start int) int {
	if start < 0 || start >= len(m.Cells) {
		start = 0
	}
	p = p.Normalize()
	cur := start
	best := m.Cells[cur].Center.Dot(p)
	for {
		improved := false
		for _, nb := range m.Cells[cur].Neighbors {
			if d := m.Cells[nb].Center.Dot(p); d > best {
				best, cur = d, nb
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// TotalArea returns the sum of all cell areas; for a correct mesh it equals
// the sphere area 4*pi*R^2 up to rounding.
func (m *Mesh) TotalArea() float64 {
	var s float64
	for i := range m.Cells {
		s += m.Cells[i].Area
	}
	return s
}
