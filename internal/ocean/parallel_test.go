package ocean

import (
	"strings"
	"testing"

	"insituviz/internal/mesh"
)

func TestParallelMatchesSerialBitwise(t *testing.T) {
	// Chunked parallel loops write disjoint indices from a consistent
	// snapshot, so any worker count must reproduce the serial run exactly.
	// The pooled parallelFor keeps the exact ceil-division chunk geometry of
	// the per-call goroutine version, so 1, 2, 3, odd, and large worker
	// counts are all exercised against the serial reference.
	run := func(workers int) (*State, []float64) {
		md := testModel(t, 4, Config{Viscosity: 1e5, Workers: workers})
		s, err := UnstableJet(md, DefaultGalewsky())
		if err != nil {
			t.Fatal(err)
		}
		dt := md.SuggestedTimestep(10000)
		for i := 0; i < 5; i++ {
			if err := md.Step(s, dt); err != nil {
				t.Fatal(err)
			}
		}
		return s, md.OkuboWeiss(s)
	}

	s1, w1 := run(-1)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		s2, w2 := run(workers)
		for i := range s1.Thickness {
			if s1.Thickness[i] != s2.Thickness[i] {
				t.Fatalf("workers=%d: thickness differs at cell %d: %v vs %v",
					workers, i, s1.Thickness[i], s2.Thickness[i])
			}
		}
		for i := range s1.NormalVelocity {
			if s1.NormalVelocity[i] != s2.NormalVelocity[i] {
				t.Fatalf("workers=%d: velocity differs at edge %d", workers, i)
			}
		}
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatalf("workers=%d: OW differs at cell %d", workers, i)
			}
		}
	}
}

func TestParallelForNested(t *testing.T) {
	// A loop body that itself calls parallelFor must not deadlock the
	// shared worker pool: waiters help drain the queue instead of parking.
	md := testModel(t, 1, Config{Workers: 4})
	const outer, inner = 4096, 4096
	rows := make([][]int, outer)
	for i := range rows {
		rows[i] = make([]int, inner)
	}
	md.parallelFor(outer, grainMin, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := rows[i]
			md.parallelFor(inner, grainMin, func(jlo, jhi int) {
				for j := jlo; j < jhi; j++ {
					row[j]++
				}
			})
		}
	})
	for i := range rows {
		for j, h := range rows[i] {
			if h != 1 {
				t.Fatalf("cell (%d,%d) visited %d times", i, j, h)
			}
		}
	}
}

func TestResolveWorkers(t *testing.T) {
	if resolveWorkers(-3) != 1 {
		t.Error("negative should force serial")
	}
	if resolveWorkers(0) < 1 {
		t.Error("default should be at least 1")
	}
	if resolveWorkers(5) != 5 {
		t.Error("explicit count ignored")
	}
}

func TestParallelForCoversRange(t *testing.T) {
	md := testModel(t, 1, Config{Workers: 4})
	hits := make([]int, 5000)
	md.parallelFor(len(hits), grainMin, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	// Small ranges run serially but still cover everything.
	small := make([]int, 10)
	md.parallelFor(len(small), grainMin, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			small[i]++
		}
	})
	for i, h := range small {
		if h != 1 {
			t.Fatalf("small index %d visited %d times", i, h)
		}
	}
}

func BenchmarkStepParallel10242Cells(b *testing.B) {
	// The solver scaling matrix: serial plus pooled runs at 1, 2, 4, and 8
	// workers.
	for _, workers := range []int{-1, 1, 2, 4, 8} {
		name := map[int]string{-1: "serial", 1: "workers1", 2: "workers2", 4: "workers4", 8: "workers8"}[workers]
		b.Run(name, func(b *testing.B) {
			m, err := mesh.NewIcosphere(5, mesh.EarthRadius)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Viscosity: 1e5, Workers: workers}
			md, err := NewModel(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			s, err := UnstableJet(md, DefaultGalewsky())
			if err != nil {
				b.Fatal(err)
			}
			dt := md.SuggestedTimestep(10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := md.Step(s, dt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildersReportLowestCell breaks two cells far apart, so that at 8
// workers they fall in different chunks, and checks NewModel reports the
// lower one, as a serial build does.
func TestBuildersReportLowestCell(t *testing.T) {
	const lo, hi = 300, 7000
	for _, tc := range []struct {
		name    string
		corrupt func(m *mesh.Mesh, ci int)
		want    string
	}{
		{"reconstruction", func(m *mesh.Mesh, ci int) {
			// Every row the same edge normal: A^T A has rank 2.
			c := &m.Cells[ci]
			c.Edges = []int{c.Edges[0], c.Edges[0], c.Edges[0]}
		}, "ocean: reconstruction at cell 300: "},
		{"gradients", func(m *mesh.Mesh, ci int) {
			// Every neighbor the cell itself: zero displacements.
			c := &m.Cells[ci]
			c.Neighbors = []int{ci, ci, ci}
		}, "ocean: degenerate gradient stencil at cell 300"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var serial string
			for _, workers := range []int{-1, 8} {
				m, err := mesh.NewIcosphere(5, mesh.EarthRadius)
				if err != nil {
					t.Fatal(err)
				}
				tc.corrupt(m, hi)
				tc.corrupt(m, lo)
				_, err = NewModel(m, Config{Workers: workers})
				if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("workers=%d: error %v, want prefix %q", workers, err, tc.want)
				}
				if workers < 0 {
					serial = err.Error()
				} else if err.Error() != serial {
					t.Errorf("workers=%d: error %q, serial %q", workers, err, serial)
				}
			}
		})
	}
}
