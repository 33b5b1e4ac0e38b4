package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func buildMesh(t testing.TB, subdiv int) *Mesh {
	t.Helper()
	m, err := NewIcosphere(subdiv, EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewIcosphereArgs(t *testing.T) {
	if _, err := NewIcosphere(-1, 1); err == nil {
		t.Error("negative subdivisions accepted")
	}
	if _, err := NewIcosphere(9, 1); err == nil {
		t.Error("oversized subdivisions accepted")
	}
	if _, err := NewIcosphere(2, 0); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := NewIcosphere(2, -5); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestIcosphereCounts(t *testing.T) {
	for subdiv := 0; subdiv <= 4; subdiv++ {
		m := buildMesh(t, subdiv)
		p := 1 << (2 * subdiv) // 4^subdiv
		wantCells := 10*p + 2
		wantEdges := 30 * p
		wantVerts := 20 * p
		if m.NCells() != wantCells {
			t.Errorf("subdiv %d: cells = %d, want %d", subdiv, m.NCells(), wantCells)
		}
		if m.NEdges() != wantEdges {
			t.Errorf("subdiv %d: edges = %d, want %d", subdiv, m.NEdges(), wantEdges)
		}
		if m.NVertices() != wantVerts {
			t.Errorf("subdiv %d: vertices = %d, want %d", subdiv, m.NVertices(), wantVerts)
		}
		// Euler characteristic of the sphere: F - E + V = 2 for the dual
		// polyhedron (cells are faces, dual vertices are vertices).
		if chi := m.NCells() - m.NEdges() + m.NVertices(); chi != 2 {
			t.Errorf("subdiv %d: Euler characteristic = %d, want 2", subdiv, chi)
		}
	}
}

func TestPentagonCount(t *testing.T) {
	m := buildMesh(t, 3)
	pent, hex, other := 0, 0, 0
	for i := range m.Cells {
		switch len(m.Cells[i].Edges) {
		case 5:
			pent++
		case 6:
			hex++
		default:
			other++
		}
	}
	if pent != 12 {
		t.Errorf("pentagons = %d, want 12", pent)
	}
	if other != 0 {
		t.Errorf("cells that are neither pentagons nor hexagons: %d", other)
	}
	if hex != m.NCells()-12 {
		t.Errorf("hexagons = %d, want %d", hex, m.NCells()-12)
	}
}

func TestAreaSums(t *testing.T) {
	m := buildMesh(t, 3)
	sphere := 4 * math.Pi * EarthRadius * EarthRadius
	if got := m.TotalArea(); math.Abs(got-sphere)/sphere > 1e-9 {
		t.Errorf("cell area sum = %g, want %g", got, sphere)
	}
	var dual float64
	for i := range m.Vertices {
		dual += m.Vertices[i].Area
	}
	if math.Abs(dual-sphere)/sphere > 1e-9 {
		t.Errorf("dual area sum = %g, want %g", dual, sphere)
	}
}

func TestEdgeGeometry(t *testing.T) {
	m := buildMesh(t, 2)
	for ei := range m.Edges {
		e := &m.Edges[ei]
		if math.Abs(e.Normal.Norm()-1) > 1e-9 || math.Abs(e.Tangent.Norm()-1) > 1e-9 {
			t.Fatalf("edge %d: non-unit frame", ei)
		}
		if math.Abs(e.Normal.Dot(e.Midpoint)) > 1e-9 {
			t.Fatalf("edge %d: normal not tangent to sphere", ei)
		}
		if math.Abs(e.Tangent.Dot(e.Midpoint)) > 1e-9 || math.Abs(e.Tangent.Dot(e.Normal)) > 1e-9 {
			t.Fatalf("edge %d: tangent frame not orthogonal", ei)
		}
		// Normal must point from cell 0 toward cell 1.
		d := m.Cells[e.Cells[1]].Center.Sub(m.Cells[e.Cells[0]].Center)
		if e.Normal.Dot(d) <= 0 {
			t.Fatalf("edge %d: normal points the wrong way", ei)
		}
		if e.Dc <= 0 || e.Dv <= 0 {
			t.Fatalf("edge %d: non-positive metrics dc=%g dv=%g", ei, e.Dc, e.Dv)
		}
	}
}

func TestCellConnectivity(t *testing.T) {
	m := buildMesh(t, 2)
	for ci := range m.Cells {
		c := &m.Cells[ci]
		if len(c.Edges) != len(c.Neighbors) || len(c.Edges) != len(c.Vertices) || len(c.Edges) != len(c.EdgeSigns) {
			t.Fatalf("cell %d: inconsistent connectivity lengths", ci)
		}
		for k, ei := range c.Edges {
			e := &m.Edges[ei]
			if e.Cells[0] != ci && e.Cells[1] != ci {
				t.Fatalf("cell %d lists edge %d that does not touch it", ci, ei)
			}
			wantSign := int8(-1)
			if e.Cells[0] == ci {
				wantSign = 1
			}
			if c.EdgeSigns[k] != wantSign {
				t.Fatalf("cell %d edge %d: sign %d, want %d", ci, ei, c.EdgeSigns[k], wantSign)
			}
			nb := c.Neighbors[k]
			if nb == ci || (e.Cells[0] != nb && e.Cells[1] != nb) {
				t.Fatalf("cell %d: neighbor %d inconsistent with edge %d", ci, nb, ei)
			}
		}
	}
}

func TestEdgeSignsAreAntisymmetric(t *testing.T) {
	m := buildMesh(t, 2)
	// Each edge must appear in exactly two cells with opposite signs.
	seen := make(map[int][]int8)
	for ci := range m.Cells {
		c := &m.Cells[ci]
		for k, ei := range c.Edges {
			seen[ei] = append(seen[ei], c.EdgeSigns[k])
		}
	}
	for ei, signs := range seen {
		if len(signs) != 2 || signs[0]+signs[1] != 0 {
			t.Fatalf("edge %d: signs %v", ei, signs)
		}
	}
	if len(seen) != m.NEdges() {
		t.Fatalf("edges referenced by cells: %d, want %d", len(seen), m.NEdges())
	}
}

func TestVertexConnectivity(t *testing.T) {
	m := buildMesh(t, 2)
	for vi := range m.Vertices {
		v := &m.Vertices[vi]
		for _, ei := range v.Edges {
			e := &m.Edges[ei]
			if e.Vertices[0] != vi && e.Vertices[1] != vi {
				t.Fatalf("vertex %d lists edge %d that does not touch it", vi, ei)
			}
		}
		// The three cells of the dual triangle must be the pairwise union
		// of the incident edges' cells.
		cells := map[int]bool{}
		for _, ei := range v.Edges {
			cells[m.Edges[ei].Cells[0]] = true
			cells[m.Edges[ei].Cells[1]] = true
		}
		if len(cells) != 3 {
			t.Fatalf("vertex %d: incident edges span %d cells, want 3", vi, len(cells))
		}
		for _, ci := range v.Cells {
			if !cells[ci] {
				t.Fatalf("vertex %d: cell %d missing from incident edges", vi, ci)
			}
		}
	}
}

func TestVertexCirculationClosesLoop(t *testing.T) {
	// Walking the three dual-triangle boundary segments with the stored
	// signs must traverse a closed loop: each cell of the triangle is
	// entered exactly once and left exactly once.
	m := buildMesh(t, 2)
	for vi := range m.Vertices {
		v := &m.Vertices[vi]
		degree := map[int]int{}
		for k, ei := range v.Edges {
			e := &m.Edges[ei]
			from, to := e.Cells[0], e.Cells[1]
			if v.EdgeSigns[k] < 0 {
				from, to = to, from
			}
			degree[from]--
			degree[to]++
		}
		for ci, d := range degree {
			if d != 0 {
				t.Fatalf("vertex %d: cell %d has net degree %d, loop not closed", vi, ci, d)
			}
		}
	}
}

func TestCellVertexOrderIsCCW(t *testing.T) {
	m := buildMesh(t, 2)
	for ci := range m.Cells {
		c := &m.Cells[ci]
		// The polygon area computed from the stored order must be positive
		// (CCW) and match the stored area.
		corners := make([]Vec3, len(c.Vertices))
		for k, vi := range c.Vertices {
			corners[k] = m.Vertices[vi].Pos
		}
		a := SphericalPolygonArea(corners, m.Radius)
		if a <= 0 {
			t.Fatalf("cell %d: vertex order not CCW (area %g)", ci, a)
		}
		if math.Abs(a-c.Area)/c.Area > 1e-9 {
			t.Fatalf("cell %d: stored area %g != recomputed %g", ci, c.Area, a)
		}
	}
}

func TestNearestCell(t *testing.T) {
	m := buildMesh(t, 3)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p := randUnit(rng)
		got := m.NearestCell(p, rng.Intn(m.NCells()))
		// Brute-force reference.
		best, bestDot := 0, -2.0
		for ci := range m.Cells {
			if d := m.Cells[ci].Center.Dot(p); d > bestDot {
				best, bestDot = ci, d
			}
		}
		if got != best {
			t.Fatalf("trial %d: NearestCell = %d, brute force = %d", trial, got, best)
		}
	}
	// Out-of-range start must not crash.
	if got := m.NearestCell(Vec3{0, 0, 1}, -5); got < 0 || got >= m.NCells() {
		t.Errorf("NearestCell with bad start = %d", got)
	}
}

func TestDualTriangleAreaConsistency(t *testing.T) {
	m := buildMesh(t, 2)
	for vi := range m.Vertices {
		v := &m.Vertices[vi]
		a := SphericalTriangleArea(
			m.Cells[v.Cells[0]].Center,
			m.Cells[v.Cells[1]].Center,
			m.Cells[v.Cells[2]].Center,
			m.Radius,
		)
		if math.Abs(a-v.Area)/v.Area > 1e-9 {
			t.Fatalf("vertex %d: stored area %g != recomputed %g", vi, v.Area, a)
		}
	}
}

// TestNewIcosphereAllocs guards the flat-array construction: every
// cell's lists are sub-slices of four shared arrays and each loop's
// scratch is per chunk, so a 10 242-cell build allocates a few dozen
// objects, not several per cell.
func TestNewIcosphereAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewIcosphere(5, EarthRadius); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 200 {
		t.Errorf("NewIcosphere(5) allocates %.0f objects, want < 200", allocs)
	}
}

// triangulation returns the points and triangles of the icosahedron after
// subdiv subdivisions, the input NewIcosphere builds its mesh from.
func triangulation(t *testing.T, subdiv int) ([]Vec3, [][3]int) {
	t.Helper()
	pts, tris := icosahedron()
	for s := 0; s < subdiv; s++ {
		var err error
		if pts, tris, err = subdivide(pts, tris, 1); err != nil {
			t.Fatal(err)
		}
	}
	return pts, tris
}

// buildErr builds the mesh of a triangulation at the given fan-out width
// and returns its error, failing the test on a panic or a success.
func buildErr(t *testing.T, pts []Vec3, tris [][3]int, width int) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("width %d: build panicked: %v", width, r)
		}
	}()
	m := &Mesh{Radius: EarthRadius}
	if err = m.build(pts, tris, width); err == nil {
		t.Fatalf("width %d: malformed triangulation accepted", width)
	}
	return err
}

// TestBuildRejectsMalformedTriangulation feeds the mesh builder hand-broken
// copies of the 2 562-point triangulation, each broken at two places. Each
// must fail with its own error, never panic, and name the same (lowest)
// failing element at fan-out width 1 as at width 8, where the failures
// fall in different chunks.
func TestBuildRejectsMalformedTriangulation(t *testing.T) {
	pts, tris := triangulation(t, 4)
	const lo, hi = 300, 4000
	clone := func() [][3]int { return append([][3]int(nil), tris...) }

	removed := clone()
	removed = append(removed[:hi], removed[hi+1:]...)
	removed = append(removed[:lo], removed[lo+1:]...)

	duplicated := append(clone(), tris[hi], tris[lo])

	flipped := clone()
	for _, ti := range []int{hi, lo} {
		flipped[ti][1], flipped[ti][2] = flipped[ti][2], flipped[ti][1]
	}

	// The errors are exact: which edge is first to lose its twin, or to
	// gain a third triangle, follows from the first-appearance numbering.
	for _, tc := range []struct {
		name string
		tris [][3]int
		want string
	}{
		{"triangle removed", removed, "mesh: boundary edge 463 on a closed sphere"},
		{"triangle duplicated", duplicated, "mesh: edge 22-1177 shared by more than two triangles"},
		{"triangle flipped", flipped, fmt.Sprintf("mesh: non-positive dual triangle area at vertex %d", lo)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, width := range []int{1, 8} {
				if err := buildErr(t, pts, tc.tris, width); err.Error() != tc.want {
					t.Errorf("width %d: error %q, want %q", width, err, tc.want)
				}
			}
		})
	}
}

// TestBuildRejectsCocircularQuads builds the cube's surface with each
// square face cut into two triangles. A square's corners are cocircular,
// so both triangles have the same circumcenter and the diagonal between
// them is a Voronoi face of zero length: a degenerate edge.
func TestBuildRejectsCocircularQuads(t *testing.T) {
	s := 1 / math.Sqrt(3)
	pts := make([]Vec3, 8)
	for i := range pts {
		pts[i] = Vec3{-s, -s, -s}
		for k := 0; k < 3; k++ {
			if i>>k&1 == 1 {
				pts[i][k] = s
			}
		}
	}
	var tris [][3]int
	for _, q := range [][4]int{{0, 2, 6, 4}, {1, 3, 7, 5}, {0, 1, 5, 4}, {2, 3, 7, 6}, {0, 1, 3, 2}, {4, 5, 7, 6}} {
		for _, t := range [][3]int{{q[0], q[1], q[2]}, {q[0], q[2], q[3]}} {
			a, b, c := pts[t[0]], pts[t[1]], pts[t[2]]
			if b.Sub(a).Cross(c.Sub(a)).Dot(a.Add(b).Add(c)) < 0 {
				t[1], t[2] = t[2], t[1]
			}
			tris = append(tris, t)
		}
	}
	for _, width := range []int{1, 8} {
		// Edge 0 runs from the first triangle's first corner across its
		// face's diagonal (the orientation swap puts the diagonal first).
		err := buildErr(t, pts, tris, width).Error()
		if !strings.HasPrefix(err, "mesh: degenerate edge 0 (") || !strings.HasSuffix(err, ", dv=0)") {
			t.Errorf("width %d: error %q, want degenerate edge 0 with dv=0", width, err)
		}
	}
}

func BenchmarkNewIcosphere(b *testing.B) {
	for _, subdiv := range []int{3, 4, 5, 6} {
		b.Run(map[int]string{3: "642cells", 4: "2562cells", 5: "10242cells", 6: "40962cells"}[subdiv], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewIcosphere(subdiv, EarthRadius); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNearestCell(b *testing.B) {
	m, err := NewIcosphere(5, EarthRadius)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]Vec3, 1024)
	for i := range pts {
		pts[i] = randUnit(rng)
	}
	b.ResetTimer()
	cur := 0
	for i := 0; i < b.N; i++ {
		cur = m.NearestCell(pts[i%len(pts)], cur)
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
