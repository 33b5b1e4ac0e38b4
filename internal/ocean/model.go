package ocean

import (
	"fmt"
	"math"

	"insituviz/internal/linalg"
	"insituviz/internal/mesh"
	"insituviz/internal/telemetry"
	"insituviz/internal/workpool"
)

// Gravity is the standard gravitational acceleration (m/s^2), the value
// used by the shallow-water test suite of Williamson et al.
const Gravity = 9.80616

// EarthOmega is the Earth's rotation rate (rad/s).
const EarthOmega = 7.292e-5

// Config selects the physical parameters of a Model.
type Config struct {
	// Viscosity is the harmonic (del^2) dissipation coefficient (m^2/s).
	// Coarse meshes need some dissipation to stay stable under the
	// under-resolved jets that spawn eddies.
	Viscosity float64
	// Workers is the shared-memory parallelism of the tendency and
	// diagnostic loops: 0 uses GOMAXPROCS, negative forces serial
	// execution. Results are bit-identical at any worker count (chunks are
	// disjoint and each index writes only its own slot).
	Workers int
	// Telemetry, when non-nil, receives the model's runtime metrics:
	// ocean.steps / ocean.diag.evals / ocean.okubo.evals counters and the
	// ocean.step.time histogram (nanoseconds). A nil registry costs the
	// hot path nothing beyond nil checks; with a registry attached the cost
	// is two clock reads and a handful of atomic operations per step and
	// zero allocations (see the alloc guards in alloc_test.go).
	Telemetry *telemetry.Registry
}

// instruments holds the model's metric handles, resolved once at NewModel
// so the hot path never performs a registry lookup. All handles may be nil
// (no registry), which every metric method treats as a no-op.
type instruments struct {
	steps     *telemetry.Counter
	stepTime  *telemetry.Histogram
	diagEvals *telemetry.Counter
	okubo     *telemetry.Counter
}

func newInstruments(reg *telemetry.Registry) instruments {
	return instruments{
		steps:     reg.Counter("ocean.steps"),
		stepTime:  reg.Histogram("ocean.step.time", telemetry.LatencyBuckets),
		diagEvals: reg.Counter("ocean.diag.evals"),
		okubo:     reg.Counter("ocean.okubo.evals"),
	}
}

// Model couples a mesh with physical parameters and the precomputed
// operators (velocity reconstruction, gradients, Coriolis fields) needed to
// evaluate tendencies efficiently.
//
// A Model owns reusable scratch buffers (RK stage states, a diagnostics
// buffer, Okubo-Weiss projections) so its steady-state stepping and
// diagnostic methods allocate nothing. Consequently a Model must not be
// used from multiple goroutines concurrently; build one Model per
// goroutine instead. Parallelism inside a single Model is governed by
// Config.Workers and runs on the persistent worker pool.
type Model struct {
	Mesh      *mesh.Mesh
	Omega     float64
	Viscosity float64

	workers int

	coriolisEdge []float64 // f at edge midpoints

	// vertexTangentSign[e] is +1 when Edges[e].Vertices[1] lies in the
	// +Tangent direction from Vertices[0]; used by the del2 operator.
	vertexTangentSign []float64

	// The per-cell operators are slot-major: cell ci owns the slots
	// [cellOff[ci], cellOff[ci+1]) of every array below, and its slot k
	// belongs to Edges[k] and to Neighbors[k], the cell across that edge.
	// The tendency loops read these flat arrays instead of gathering
	// fields out of mesh.Edge once per edge of every cell.
	cellOff []int32

	// recon reconstructs the tangent velocity vector at cell c from the
	// normal velocities on its edges: V = sum_k recon[o+k] * u(Edges[k])
	// with o = cellOff[c], each coefficient a 3-vector (least-squares
	// pseudo-inverse).
	recon []mesh.Vec3

	// gradWeights are least-squares gradient weights: the tangent-plane
	// gradient of a cell field F at cell c is
	// sum_k gradWeights[o+k] * (F[Neighbors[k]] - F[c]) in the local
	// (east, north) basis. Each weight is a 2-vector (gx, gy).
	gradWeights [][2]float64

	// slotSignDv is EdgeSigns[k]·Dv and slotKE is Dc·Dv·0.25 of the
	// slot's edge: the divergence/flux and kinetic-energy coefficients of
	// the cell pass.
	slotSignDv, slotKE []float64

	// vertexSignDc[v][k] is EdgeSigns[k]·Dc of vertex v's Edges[k], the
	// circulation coefficient of the vertex pass.
	vertexSignDc [][3]float64

	// cellEast/cellNorth are the per-cell local tangent bases, precomputed
	// lazily for the Okubo-Weiss loops (see ensureOkubo).
	cellEast, cellNorth []mesh.Vec3

	// Per-loop grain sizes (minimum indices per chunk), derived once at
	// NewModel from the pool's measured fan-out overhead and each loop
	// body's approximate per-index cost (see parallel.go).
	grainDiagCells, grainDiagVerts  int
	grainMomentum, grainUpdate      int
	grainOWProject, grainOWGradient int

	// sc holds the preallocated stage/diagnostics scratch and the bound
	// loop bodies of the allocation-free hot path (see scratch.go).
	sc stepScratch

	// instr holds the metric handles resolved from Config.Telemetry;
	// every handle may be nil, making the instrumentation a no-op.
	instr instruments
}

// NewModel builds a model on m with the given configuration, precomputing
// the reconstruction and gradient operators.
func NewModel(m *mesh.Mesh, cfg Config) (*Model, error) {
	if m == nil || m.NCells() == 0 {
		return nil, fmt.Errorf("ocean: nil or empty mesh")
	}
	if cfg.Viscosity < 0 {
		return nil, fmt.Errorf("ocean: negative viscosity %g", cfg.Viscosity)
	}
	md := &Model{Mesh: m, Omega: EarthOmega, Viscosity: cfg.Viscosity, workers: resolveWorkers(cfg.Workers),
		instr: newInstruments(cfg.Telemetry)}

	// Edge and vertex fields, then the per-cell operators: every loop of
	// the build writes only its own index's slots, so it runs on the pool
	// and the model is bit-identical at any worker count.
	md.coriolisEdge = make([]float64, m.NEdges())
	md.vertexTangentSign = make([]float64, m.NEdges())
	md.parallelFor(m.NEdges(), grainMin, func(lo, hi int) {
		for ei := lo; ei < hi; ei++ {
			e := &m.Edges[ei]
			md.coriolisEdge[ei] = 2 * EarthOmega * math.Sin(e.Lat)
			v0 := m.Vertices[e.Vertices[0]].Pos
			v1 := m.Vertices[e.Vertices[1]].Pos
			if v1.Sub(v0).Dot(e.Tangent) >= 0 {
				md.vertexTangentSign[ei] = 1
			} else {
				md.vertexTangentSign[ei] = -1
			}
		}
	})
	md.vertexSignDc = make([][3]float64, m.NVertices())
	md.parallelFor(m.NVertices(), grainMin, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := &m.Vertices[vi]
			for k, ei := range v.Edges {
				md.vertexSignDc[vi][k] = float64(v.EdgeSigns[k]) * m.Edges[ei].Dc
			}
		}
	})

	md.cellOff = make([]int32, m.NCells()+1)
	slots := 0
	for ci := range m.Cells {
		slots += len(m.Cells[ci].Edges)
		if slots > math.MaxInt32 {
			return nil, fmt.Errorf("ocean: mesh has more than %d cell-edge slots", math.MaxInt32)
		}
		md.cellOff[ci+1] = int32(slots)
	}
	if err := md.buildReconstruction(); err != nil {
		return nil, err
	}
	if err := md.buildGradients(); err != nil {
		return nil, err
	}
	md.initLoopBindings()
	md.initGrains()
	return md, nil
}

// initGrains derives the per-loop grain sizes. A serial model never fans
// out, so it skips the pool calibration (grainFor lazily starts the pool
// and measures its overhead on first use).
func (md *Model) initGrains() {
	if md.workers <= 1 {
		md.grainDiagCells, md.grainDiagVerts = grainMax, grainMax
		md.grainMomentum, md.grainUpdate = grainMax, grainMax
		md.grainOWProject, md.grainOWGradient = grainMax, grainMax
		return
	}
	md.grainDiagCells = grainFor(costDiagCells)
	md.grainDiagVerts = grainFor(costDiagVerts)
	md.grainMomentum = grainFor(costMomentum)
	md.grainUpdate = grainFor(costUpdate)
	md.grainOWProject = grainFor(costOWProject)
	md.grainOWGradient = grainFor(costOWGradient)
}

// buildReconstruction precomputes, for every cell, the least-squares
// pseudo-inverse mapping edge normal velocities to the cell-centered tangent
// velocity vector. The system per cell is
//
//	n_e . V = u_e   for each edge e of the cell
//	r  . V = 0      (tangency constraint)
//
// solved in the least-squares sense; the solution is linear in the u_e, so
// we store one 3-vector of coefficients per edge. The same walk over the
// cell's edges fills the slot's divergence and kinetic-energy
// coefficients.
func (md *Model) buildReconstruction() error {
	m := md.Mesh
	// Each chunk of cells reuses one matrix, factorization, and row
	// buffer: model construction dominates a short coupled run's
	// allocation profile, so the builder is as reuse-conscious as the hot
	// path. A cell costs a microsecond or so, so even a grainMin chunk
	// dwarfs the pool's fan-out overhead and the loop needs no calibrated
	// grain.
	nSlots := md.cellOff[m.NCells()]
	md.recon = make([]mesh.Vec3, nSlots)
	md.slotSignDv = make([]float64, nSlots)
	md.slotKE = make([]float64, nSlots)
	var fail workpool.FirstError
	md.parallelFor(m.NCells(), grainMin, func(lo, hi int) {
		ata := linalg.NewMatrix(3, 3)
		var f linalg.LU
		var rows []mesh.Vec3
		var b, x [3]float64
		for ci := lo; ci < hi; ci++ {
			c := &m.Cells[ci]
			o0, o1 := md.cellOff[ci], md.cellOff[ci+1]
			sdv, kc := md.slotSignDv[o0:o1], md.slotKE[o0:o1]
			// Normal equations: (A^T A) X = A^T, where A is (ne+1) x 3 with
			// edge normals and the radial constraint row.
			rows = rows[:0]
			for k, ei := range c.Edges {
				e := &m.Edges[ei]
				rows = append(rows, e.Normal)
				sdv[k] = float64(c.EdgeSigns[k]) * e.Dv
				kc[k] = e.Dc * e.Dv * 0.25
			}
			rows = append(rows, c.Center)
			var sum [3][3]float64
			for _, r := range rows {
				for a := 0; a < 3; a++ {
					for b := 0; b < 3; b++ {
						sum[a][b] += r[a] * r[b]
					}
				}
			}
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					ata.Set(a, b, sum[a][b])
				}
			}
			if err := f.Refactor(ata); err != nil {
				fail.Set(ci, fmt.Errorf("ocean: reconstruction at cell %d: %w", ci, err))
				return
			}
			coeffs := md.recon[o0:o1]
			for k := range coeffs {
				// Column of the pseudo-inverse for edge k: solve (A^T A) x = n_k.
				n := rows[k]
				b = [3]float64{n[0], n[1], n[2]}
				if err := f.SolveInto(x[:], b[:]); err != nil {
					fail.Set(ci, fmt.Errorf("ocean: reconstruction at cell %d: %w", ci, err))
					return
				}
				coeffs[k] = mesh.Vec3{x[0], x[1], x[2]}
			}
		}
	})
	return fail.Err()
}

// buildGradients precomputes least-squares tangent-plane gradient weights
// for cell-centered fields, used by the Okubo-Weiss diagnostic.
func (md *Model) buildGradients() error {
	m := md.Mesh
	// As in buildReconstruction: each chunk reuses one displacement buffer.
	md.gradWeights = make([][2]float64, md.cellOff[m.NCells()])
	var fail workpool.FirstError
	md.parallelFor(m.NCells(), grainMin, func(lo, hi int) {
		var dx [][2]float64
		for ci := lo; ci < hi; ci++ {
			c := &m.Cells[ci]
			east, north := mesh.TangentBasis(c.Center)
			// Design matrix rows: displacement of each neighbor center in
			// the local (east, north) frame, scaled to physical meters.
			dx = dx[:0]
			var sxx, sxy, syy float64
			for _, nb := range c.Neighbors {
				d := mesh.ProjectToTangent(c.Center, m.Cells[nb].Center.Sub(c.Center))
				x := d.Dot(east) * m.Radius
				y := d.Dot(north) * m.Radius
				dx = append(dx, [2]float64{x, y})
				sxx += x * x
				sxy += x * y
				syy += y * y
			}
			det := sxx*syy - sxy*sxy
			if det == 0 {
				fail.Set(ci, fmt.Errorf("ocean: degenerate gradient stencil at cell %d", ci))
				return
			}
			w := md.gradWeights[md.cellOff[ci]:md.cellOff[ci+1]]
			if len(dx) != len(w) {
				fail.Set(ci, fmt.Errorf("ocean: cell %d has %d neighbors for %d edges", ci, len(dx), len(w)))
				return
			}
			for k := range dx {
				x, y := dx[k][0], dx[k][1]
				// (X^T X)^{-1} X^T row by row.
				w[k] = [2]float64{
					(syy*x - sxy*y) / det,
					(sxx*y - sxy*x) / det,
				}
			}
		}
	})
	return fail.Err()
}

// SuggestedTimestep returns a timestep (s) satisfying an RK4 gravity-wave
// CFL condition for the given mean layer depth, with a safety factor.
func (md *Model) SuggestedTimestep(meanDepth float64) float64 {
	if meanDepth <= 0 {
		return 0
	}
	c := math.Sqrt(Gravity * meanDepth)
	minDc := math.Inf(1)
	for i := range md.Mesh.Edges {
		if d := md.Mesh.Edges[i].Dc; d < minDc {
			minDc = d
		}
	}
	return 0.8 * minDc / (c * math.Sqrt2)
}
