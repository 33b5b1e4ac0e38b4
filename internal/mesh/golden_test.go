package mesh

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// meshGoldenHashes are the SHA-256 digests of every Cell, Edge and Vertex
// field of the icosphere at the given subdivision level (see meshHash). A
// construction rewrite that renumbers an element, reorders a cell's
// polygon or changes one floating-point bit changes them; such a change is
// a declared one, never a silent one.
var meshGoldenHashes = map[int]string{
	3: "a6aadc056a2de4552b352085df52c3522ab35994cafeaafd7bd7ec4d3db948bd",
	5: "8afd261b7ffd6dc34167387913f76e61027c00b9407ba65432c0cc009110082d",
}

// meshHash digests m in index order: for every cell its center, lat/lon,
// area and the length and contents of its Edges, EdgeSigns, Neighbors and
// Vertices; for every edge its cells, vertices, frame, lat/lon and
// metrics; for every vertex its position, area, cells, edges and signs.
// Floats enter as their IEEE-754 bits, integers as int64.
func meshHash(m *Mesh) string {
	h := sha256.New()
	var buf [8]byte
	f := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	n := func(xs ...int) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
			h.Write(buf[:])
		}
	}
	s := func(xs ...int8) {
		for _, x := range xs {
			h.Write([]byte{byte(x)})
		}
	}
	f(m.Radius)
	n(m.Subdivisions, len(m.Cells), len(m.Edges), len(m.Vertices))
	for i := range m.Cells {
		c := &m.Cells[i]
		f(c.Center[:]...)
		f(c.Lat, c.Lon, c.Area)
		n(len(c.Edges), len(c.EdgeSigns), len(c.Neighbors), len(c.Vertices))
		n(c.Edges...)
		s(c.EdgeSigns...)
		n(c.Neighbors...)
		n(c.Vertices...)
	}
	for i := range m.Edges {
		e := &m.Edges[i]
		n(e.Cells[:]...)
		n(e.Vertices[:]...)
		f(e.Midpoint[:]...)
		f(e.Normal[:]...)
		f(e.Tangent[:]...)
		f(e.Lat, e.Lon, e.Dc, e.Dv)
	}
	for i := range m.Vertices {
		v := &m.Vertices[i]
		f(v.Pos[:]...)
		f(v.Area)
		n(v.Cells[:]...)
		n(v.Edges[:]...)
		s(v.EdgeSigns[:]...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMeshGoldenHash pins the mesh's bits. Go may fuse multiply-add on
// targets other than amd64, so the bits are promised per platform and the
// constants are checked on amd64 only. The mesh is built at fan-out width
// 1 (every loop inline, as on a one-worker pool), at width 8, and through
// NewIcosphere at the machine's width: every build must hash the same.
func TestMeshGoldenHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("mesh bits are pinned on amd64 only (running on %s)", runtime.GOARCH)
	}
	for _, subdiv := range []int{3, 5} {
		want := meshGoldenHashes[subdiv]
		if got := meshHash(buildMesh(t, subdiv)); got != want {
			t.Errorf("subdivisions %d: mesh hash %s, want %s", subdiv, got, want)
		}
		for _, width := range []int{1, 8} {
			m, err := newIcosphere(subdiv, EarthRadius, width)
			if err != nil {
				t.Fatal(err)
			}
			if got := meshHash(m); got != want {
				t.Errorf("subdivisions %d, width %d: mesh hash %s, want %s", subdiv, width, got, want)
			}
		}
	}
}
