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
	"runtime"

	"insituviz/internal/workpool"
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
// [0, 8] to bound memory. Construction runs on the worker pool, and the
// mesh is bit-identical at any pool width.
func NewIcosphere(subdivisions int, radius float64) (*Mesh, error) {
	if subdivisions < 0 || subdivisions > 8 {
		return nil, fmt.Errorf("mesh: subdivisions %d out of range [0, 8]", subdivisions)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("mesh: radius must be positive, got %g", radius)
	}
	return newIcosphere(subdivisions, radius, 2*runtime.GOMAXPROCS(0))
}

// newIcosphere is NewIcosphere with each construction loop fanned out over
// at most width chunks.
func newIcosphere(subdivisions int, radius float64, width int) (*Mesh, error) {
	pts, tris := icosahedron()
	for s := 0; s < subdivisions; s++ {
		var err error
		if pts, tris, err = subdivide(pts, tris, width); err != nil {
			return nil, err
		}
	}
	m := &Mesh{Radius: radius, Subdivisions: subdivisions}
	if err := m.build(pts, tris, width); err != nil {
		return nil, err
	}
	return m, nil
}

// minChunk is the fewest indices a fanned-out chunk of a construction loop
// gets: each loop body costs on the order of a microsecond per index.
const minChunk = 512

// parallelFor runs fn over [0, n) on the worker pool in at most width
// contiguous chunks of at least minChunk indices, inline when that leaves
// one chunk. Every construction loop writes only its own index's slots, so
// the result does not depend on width.
func parallelFor(n, width int, fn func(lo, hi int)) {
	if c := min(width, n/minChunk); c > 1 {
		workpool.Run(n, c, fn)
		return
	}
	fn(0, n)
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

// next[k] is the corner that follows corner k of a triangle.
var next = [3]int{1, 2, 0}

// halfEdges numbers the undirected edges of a triangle list. Half-edge
// h = 3t+k runs from corner k of triangle t to the corner after it. Edges
// are numbered in order of their first half-edge over (t, k) — the
// first-appearance order a map keyed by the endpoint pair would give — so
// an edge's first half-edge lies in its lower-index triangle.
type halfEdges struct {
	edge   []int // edge of each half-edge
	first  []int // first half-edge of each edge
	second []int // other half-edge of each edge, -1 on a boundary
	// out[outStart[p]:outStart[p+1]] are the half-edges leaving point p, in
	// ascending order, so their triangles h/3 ascend too.
	outStart, out []int
}

// numberEdges builds the half-edge table of tris over npts points. An
// edge's other half-edges are found among those leaving either endpoint,
// six or fewer on an icosphere. It fails if an edge lies in more than two
// triangles, naming the one whose third triangle comes first.
func numberEdges(npts int, tris [][3]int) (*halfEdges, error) {
	nh := 3 * len(tris)
	he := &halfEdges{
		edge:     make([]int, nh),
		first:    make([]int, 0, nh/2),
		second:   make([]int, 0, nh/2),
		outStart: make([]int, npts+1),
		out:      make([]int, nh),
	}
	for _, t := range tris {
		for _, p := range t {
			he.outStart[p+1]++
		}
	}
	for p := 0; p < npts; p++ {
		he.outStart[p+1] += he.outStart[p]
	}
	fill := append([]int(nil), he.outStart[:npts]...)
	for h := range he.out {
		p := tris[h/3][h%3]
		he.out[fill[p]] = h
		fill[p]++
	}
	for h := range he.edge {
		he.edge[h] = -1
	}

	third, ta, tb := nh, 0, 0 // earliest half-edge that is an edge's third
	for h := range he.edge {
		if he.edge[h] >= 0 {
			continue
		}
		e := len(he.first)
		a, b := tris[h/3][h%3], tris[h/3][next[h%3]]
		he.edge[h] = e
		o1, o2 := -1, -1 // the edge's two lowest other half-edges, all > h
		other := func(g int) {
			he.edge[g] = e
			switch {
			case o1 < 0 || g < o1:
				o1, o2 = g, o1
			case o2 < 0 || g < o2:
				o2 = g
			}
		}
		for _, g := range he.out[he.outStart[b]:he.outStart[b+1]] {
			if tris[g/3][next[g%3]] == a {
				other(g)
			}
		}
		for _, g := range he.out[he.outStart[a]:he.outStart[a+1]] {
			if g != h && tris[g/3][next[g%3]] == b {
				other(g)
			}
		}
		he.first = append(he.first, h)
		he.second = append(he.second, o1)
		if o2 >= 0 && o2 < third {
			third, ta, tb = o2, min(a, b), max(a, b)
		}
	}
	if third < nh {
		return nil, fmt.Errorf("mesh: edge %d-%d shared by more than two triangles", ta, tb)
	}
	return he, nil
}

// subdivide splits each triangle into four, creating one midpoint vertex
// per edge projected onto the unit sphere. Midpoints are numbered after
// the input points in edge order.
func subdivide(pts []Vec3, tris [][3]int, width int) ([]Vec3, [][3]int, error) {
	he, err := numberEdges(len(pts), tris)
	if err != nil {
		return nil, nil, err
	}
	np := len(pts)
	outPts := make([]Vec3, np+len(he.first))
	copy(outPts, pts)
	parallelFor(len(he.first), width, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			h := he.first[e]
			t := tris[h/3]
			outPts[np+e] = pts[t[h%3]].Add(pts[t[next[h%3]]]).Normalize()
		}
	})
	out := make([][3]int, 4*len(tris))
	parallelFor(len(tris), width, func(lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			t := tris[ti]
			ab, bc, ca := np+he.edge[3*ti], np+he.edge[3*ti+1], np+he.edge[3*ti+2]
			out[4*ti] = [3]int{t[0], ab, ca}
			out[4*ti+1] = [3]int{t[1], bc, ab}
			out[4*ti+2] = [3]int{t[2], ca, bc}
			out[4*ti+3] = [3]int{ab, bc, ca}
		}
	})
	return outPts, out, nil
}

// sortByKey orders idx by ascending key, keeping equal keys in input
// order. It is the insertion sort sort.Slice runs on up to 12 elements,
// with each key computed once instead of at every comparison.
func sortByKey(idx []int, key []float64) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && key[j] < key[j-1]; j-- {
			key[j], key[j-1] = key[j-1], key[j]
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// build derives the full Voronoi mesh (cells, edges, vertices, orientation
// signs, metrics) from a spherical Delaunay triangulation given as points
// and CCW triangles, fanning each stage out over width chunks. A stage
// that fails at several indices reports the lowest, as a serial build
// would.
func (m *Mesh) build(pts []Vec3, tris [][3]int, width int) error {
	nc, nv := len(pts), len(tris)
	var fail workpool.FirstError

	// Dual vertices: triangle circumcenters.
	m.Vertices = make([]Vertex, nv)
	parallelFor(nv, width, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			t := tris[vi]
			a, b, c := pts[t[0]], pts[t[1]], pts[t[2]]
			v := &m.Vertices[vi]
			v.Pos = Circumcenter(a, b, c)
			v.Area = SphericalTriangleArea(a, b, c, m.Radius)
			v.Cells = t
			if v.Area <= 0 {
				fail.Set(vi, fmt.Errorf("mesh: non-positive dual triangle area at vertex %d", vi))
				return
			}
		}
	})
	if err := fail.Err(); err != nil {
		return err
	}

	// Edges: unique triangle edges. Each is shared by exactly two triangles
	// on a closed surface; Vertices[0] is the lower-index one.
	he, err := numberEdges(nc, tris)
	if err != nil {
		return err
	}
	m.Edges = make([]Edge, len(he.first))
	parallelFor(len(m.Edges), width, func(lo, hi int) {
		for ei := lo; ei < hi; ei++ {
			h0, h1 := he.first[ei], he.second[ei]
			if h1 < 0 {
				fail.Set(ei, fmt.Errorf("mesh: boundary edge %d on a closed sphere", ei))
				return
			}
			a, b := tris[h0/3][h0%3], tris[h0/3][next[h0%3]]
			e := &m.Edges[ei]
			e.Cells = [2]int{min(a, b), max(a, b)}
			e.Vertices = [2]int{h0 / 3, h1 / 3}
			c0, c1 := pts[e.Cells[0]], pts[e.Cells[1]]
			e.Midpoint = c0.Add(c1).Normalize()
			e.Lat, e.Lon = e.Midpoint.LatLon()
			e.Normal = ProjectToTangent(e.Midpoint, c1.Sub(c0)).Normalize()
			e.Tangent = e.Midpoint.Cross(e.Normal) // 90 deg CCW from Normal
			e.Dc = ArcLength(c0, c1, m.Radius)
			e.Dv = ArcLength(m.Vertices[e.Vertices[0]].Pos, m.Vertices[e.Vertices[1]].Pos, m.Radius)
			if e.Dc <= 0 || e.Dv <= 0 {
				fail.Set(ei, fmt.Errorf("mesh: degenerate edge %d (dc=%g, dv=%g)", ei, e.Dc, e.Dv))
				return
			}
		}
	})
	if err := fail.Err(); err != nil {
		return err
	}

	// Cells: for each generator point, gather incident edges (ascending,
	// through a per-cell cursor) and dual vertices (ascending, from the
	// half-edges leaving the point), and order both counterclockwise around
	// the center. Every cell's lists are sub-slices of four flat arrays.
	off := make([]int, nc+1)
	for ei := range m.Edges {
		off[m.Edges[ei].Cells[0]+1]++
		off[m.Edges[ei].Cells[1]+1]++
	}
	for ci := 0; ci < nc; ci++ {
		off[ci+1] += off[ci]
	}
	edges, verts := make([]int, off[nc]), make([]int, off[nc])
	signs, nbrs := make([]int8, off[nc]), make([]int, off[nc])
	cursor := append([]int(nil), off[:nc]...)
	for ei := range m.Edges {
		for _, ci := range m.Edges[ei].Cells {
			edges[cursor[ci]] = ei
			cursor[ci]++
		}
	}
	m.Cells = make([]Cell, nc)
	parallelFor(nc, width, func(lo, hi int) {
		var keyBuf [8]float64
		var cornerBuf [8]Vec3
		for ci := lo; ci < hi; ci++ {
			o0, o1 := off[ci], off[ci+1]
			ce, cv := edges[o0:o1:o1], verts[o0:o1:o1]
			out := he.out[he.outStart[ci]:he.outStart[ci+1]]
			if len(out) != len(ce) {
				fail.Set(ci, fmt.Errorf("mesh: cell %d has %d edges but %d vertices", ci, len(ce), len(out)))
				return
			}
			for k, h := range out {
				cv[k] = h / 3
			}

			center := pts[ci]
			east, north := TangentBasis(center)
			angleOf := func(p Vec3) float64 {
				d := ProjectToTangent(center, p.Sub(center))
				return math.Atan2(d.Dot(north), d.Dot(east))
			}
			keys := keyBuf[:0]
			for _, ei := range ce {
				keys = append(keys, angleOf(m.Edges[ei].Midpoint))
			}
			sortByKey(ce, keys)
			keys = keys[:0]
			for _, vi := range cv {
				keys = append(keys, angleOf(m.Vertices[vi].Pos))
			}
			sortByKey(cv, keys)

			cs, cn := signs[o0:o1:o1], nbrs[o0:o1:o1]
			for k, ei := range ce {
				e := &m.Edges[ei]
				if e.Cells[0] == ci {
					cs[k], cn[k] = 1, e.Cells[1]
				} else {
					cs[k], cn[k] = -1, e.Cells[0]
				}
			}

			corners := cornerBuf[:0]
			for _, vi := range cv {
				corners = append(corners, m.Vertices[vi].Pos)
			}
			area := SphericalPolygonArea(corners, m.Radius)
			if area <= 0 {
				fail.Set(ci, fmt.Errorf("mesh: non-positive area %g for cell %d", area, ci))
				return
			}
			lat, lon := center.LatLon()
			m.Cells[ci] = Cell{Center: center, Lat: lat, Lon: lon, Area: area,
				Edges: ce, EdgeSigns: cs, Neighbors: cn, Vertices: cv}
		}
	})
	if err := fail.Err(); err != nil {
		return err
	}

	// Vertex edge lists, in ascending edge order through a per-vertex
	// count, with circulation signs: EdgeSigns[k] = +1 when the edge's
	// cell0 -> cell1 direction is counterclockwise around the vertex.
	deg := make([]int, nv)
	for ei := range m.Edges {
		for _, vi := range m.Edges[ei].Vertices {
			if deg[vi] < 3 {
				m.Vertices[vi].Edges[deg[vi]] = ei
			}
			deg[vi]++
		}
	}
	parallelFor(nv, width, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			if deg[vi] != 3 {
				fail.Set(vi, fmt.Errorf("mesh: vertex %d has %d incident edges, want 3", vi, deg[vi]))
				return
			}
			v := &m.Vertices[vi]
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
	})
	return fail.Err()
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
