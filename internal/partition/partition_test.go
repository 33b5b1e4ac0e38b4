package partition

import (
	"fmt"
	"math"
	"testing"

	"insituviz/internal/mesh"
)

func testMesh(t testing.TB, subdiv int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.NewIcosphere(subdiv, mesh.EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	m := testMesh(t, 2)
	if _, err := New(nil, 4); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := New(m, 0); err == nil {
		t.Error("zero parts accepted")
	}
	if _, err := New(m, m.NCells()+1); err == nil {
		t.Error("more parts than cells accepted")
	}
	if _, err := BlockPartition(nil, 4); err == nil {
		t.Error("block: nil mesh accepted")
	}
	if _, err := BlockPartition(m, 0); err == nil {
		t.Error("block: zero parts accepted")
	}
}

func TestEveryCellOwnedExactlyOnce(t *testing.T) {
	m := testMesh(t, 3)
	for _, nParts := range []int{1, 2, 3, 7, 16, 150} {
		p, err := New(m, nParts)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, m.NCells())
		for r := 0; r < nParts; r++ {
			cells, err := p.Cells(r)
			if err != nil {
				t.Fatal(err)
			}
			for _, ci := range cells {
				if seen[ci] {
					t.Fatalf("nParts=%d: cell %d owned twice", nParts, ci)
				}
				seen[ci] = true
				o, err := p.Owner(ci)
				if err != nil || o != r {
					t.Fatalf("nParts=%d: Owner(%d) = %d (%v), want %d", nParts, ci, o, err, r)
				}
			}
		}
		for ci, s := range seen {
			if !s {
				t.Fatalf("nParts=%d: cell %d unowned", nParts, ci)
			}
		}
	}
}

func TestBalance(t *testing.T) {
	m := testMesh(t, 3) // 642 cells
	for _, nParts := range []int{2, 6, 10, 150} {
		p, err := New(m, nParts)
		if err != nil {
			t.Fatal(err)
		}
		counts := p.Counts()
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		// Proportional splitting keeps parts within a couple of cells.
		if max-min > 2 {
			t.Errorf("nParts=%d: counts spread %d..%d", nParts, min, max)
		}
		// The best achievable imbalance is ceil(mean)/mean; allow a single
		// extra cell of rounding drift from the recursion.
		mean := float64(m.NCells()) / float64(nParts)
		bound := (math.Ceil(mean) + 1) / mean
		if imb := p.Imbalance(); imb > bound {
			t.Errorf("nParts=%d: imbalance %v exceeds bound %v", nParts, imb, bound)
		}
	}
}

func TestRCBBeatsBlockOnCutEdges(t *testing.T) {
	// Spatially compact parts cut fewer communication edges than index
	// blocks — the reason MPAS uses a graph/spatial partitioner.
	m := testMesh(t, 4) // 2562 cells
	rcb, err := New(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := BlockPartition(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rcb.CutEdges() >= blk.CutEdges() {
		t.Errorf("RCB cut %d edges, block cut %d — expected RCB to win", rcb.CutEdges(), blk.CutEdges())
	}
}

func TestSinglePartHasNoCuts(t *testing.T) {
	m := testMesh(t, 2)
	p, err := New(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.CutEdges() != 0 {
		t.Errorf("single part cut %d edges", p.CutEdges())
	}
	halo, err := p.HaloCells(0)
	if err != nil || len(halo) != 0 {
		t.Errorf("single part halo = %v (%v)", halo, err)
	}
	st := p.Exchange()
	if st.TotalGhosts != 0 || st.BytesPerField != 0 {
		t.Errorf("single part exchange = %+v", st)
	}
}

func TestHaloCellsCorrect(t *testing.T) {
	m := testMesh(t, 2)
	p, err := New(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		halo, err := p.HaloCells(r)
		if err != nil {
			t.Fatal(err)
		}
		haloSet := map[int]bool{}
		for _, ci := range halo {
			haloSet[ci] = true
			if o, _ := p.Owner(ci); o == r {
				t.Fatalf("part %d: halo cell %d is owned locally", r, ci)
			}
		}
		// Brute force: every foreign neighbor of an owned cell is in the
		// halo, and nothing else.
		want := map[int]bool{}
		cells, _ := p.Cells(r)
		for _, ci := range cells {
			for _, nb := range m.Cells[ci].Neighbors {
				if o, _ := p.Owner(nb); o != r {
					want[nb] = true
				}
			}
		}
		if len(want) != len(haloSet) {
			t.Fatalf("part %d: halo size %d, want %d", r, len(haloSet), len(want))
		}
		for ci := range want {
			if !haloSet[ci] {
				t.Fatalf("part %d: missing halo cell %d", r, ci)
			}
		}
	}
	if _, err := p.HaloCells(-1); err == nil {
		t.Error("negative part accepted")
	}
	if _, err := p.HaloCells(5); err == nil {
		t.Error("overflow part accepted")
	}
	if _, err := p.Cells(9); err == nil {
		t.Error("overflow part accepted by Cells")
	}
	if _, err := p.Owner(-1); err == nil {
		t.Error("negative cell accepted by Owner")
	}
}

func TestMasksMatchOwnership(t *testing.T) {
	m := testMesh(t, 2)
	p, err := New(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	masks := p.Masks()
	if len(masks) != 4 {
		t.Fatalf("masks = %d", len(masks))
	}
	for ci := 0; ci < m.NCells(); ci++ {
		owners := 0
		for r, mask := range masks {
			if mask[ci] {
				owners++
				if o, _ := p.Owner(ci); o != r {
					t.Fatalf("mask/owner disagree at cell %d", ci)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("cell %d in %d masks", ci, owners)
		}
	}
}

func TestExchangeStats(t *testing.T) {
	m := testMesh(t, 3)
	p, err := New(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Exchange()
	if st.TotalGhosts <= 0 || st.MaxGhosts <= 0 || st.CutEdges <= 0 {
		t.Errorf("exchange stats = %+v", st)
	}
	if st.BytesPerField != int64(st.TotalGhosts)*8 {
		t.Errorf("bytes = %d, want %d", st.BytesPerField, st.TotalGhosts*8)
	}
	if st.MaxGhosts > st.TotalGhosts {
		t.Error("max > total")
	}
	// Ghost count is bounded by cut edges (each cut edge contributes at
	// most one ghost per side) and is at least cutEdges/6-ish; sanity:
	if st.TotalGhosts > 2*st.CutEdges {
		t.Errorf("ghosts %d exceed 2x cut edges %d", st.TotalGhosts, st.CutEdges)
	}
}

func TestDeterminism(t *testing.T) {
	m := testMesh(t, 3)
	a, err := New(m, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(m, 12)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < m.NCells(); ci++ {
		oa, _ := a.Owner(ci)
		ob, _ := b.Owner(ci)
		if oa != ob {
			t.Fatalf("partition not deterministic at cell %d", ci)
		}
	}
}

func BenchmarkRCB150Parts(b *testing.B) {
	m, err := mesh.NewIcosphere(5, mesh.EarthRadius) // 10242 cells
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(m, 150); err != nil {
			b.Fatal(err)
		}
	}
}

// BlockPartition returns the naive contiguous-index decomposition, the
// baseline RCB is compared against.
func BlockPartition(m *mesh.Mesh, nParts int) (*Partition, error) {
	if m == nil || m.NCells() == 0 {
		return nil, fmt.Errorf("partition: nil or empty mesh")
	}
	if nParts < 1 || nParts > m.NCells() {
		return nil, fmt.Errorf("partition: invalid part count %d", nParts)
	}
	p := &Partition{m: m, nParts: nParts, owner: make([]int, m.NCells())}
	per := m.NCells() / nParts
	extra := m.NCells() % nParts
	ci := 0
	for r := 0; r < nParts; r++ {
		n := per
		if r < extra {
			n++
		}
		for k := 0; k < n; k++ {
			p.owner[ci] = r
			ci++
		}
	}
	p.cells = make([][]int, nParts)
	for ci, o := range p.owner {
		p.cells[o] = append(p.cells[o], ci)
	}
	return p, nil
}
