package ocean

import (
	"insituviz/internal/mesh"
	"insituviz/internal/workpool"
)

// uvComp is a reconstructed cell velocity expressed in the cell's own local
// (east, north) tangent basis.
type uvComp struct{ u, v float64 }

// cellRecord is what momentum reads of a cell, packed so that one edge
// gathers two records instead of loading the velocity, kinetic energy,
// thickness and divergence of both its cells from four arrays. When the
// cell pass writes a tendency it writes the records in place of the
// diagnostics' cell fields, which nothing reads on that path.
type cellRecord struct {
	vel  mesh.Vec3 // reconstructed tangent velocity
	bern float64   // Bernoulli function K + g h
	div  float64   // velocity divergence
}

// stepScratch holds the preallocated RK4 states, diagnostics buffer, and
// bound loop bodies that make the steady-state Step / diagnostics /
// Okubo-Weiss path allocation-free. Buffers are allocated lazily the first
// time the corresponding method runs and reused for the life of the model.
//
// The loop closures are created once (initLoopBindings) and read their
// operands from the fields below, which the dispatching method sets
// immediately before each parallelFor call. Capturing loop-local variables
// instead would heap-allocate a fresh closure per fan-out — roughly a dozen
// times per RK4 step — because closures handed to the worker pool escape.
// The cost of this shape is that a Model must not be used from multiple
// goroutines at once, which Step's in-place mutation already ruled out.
//
// The loop bodies index mesh.Vec3 components directly instead of calling
// its value methods: Go keeps a [3]float64 in memory, not registers, so
// every Add/Scale/Dot temporary in an inner loop is a stack round trip.
// Each written-out expression keeps the operation order of the method
// chain it replaces, so the results are bit-identical.
type stepScratch struct {
	// RK4 keeps three states: the current slope k, the intermediate
	// state tmp it is evaluated at, and the running sum of the weighted
	// slopes (see Step).
	k, tmp, sum *State
	rec         []cellRecord
	diag        *Diagnostics
	owComp      []uvComp

	// pair holds the fused fan-out headers of parallelPair, so building a
	// two-loop fan-out writes two structs instead of allocating a slice.
	pair [2]workpool.Loop

	// Loop operands for the bound closures. loopOut is nil on the
	// diagnostics-only path, where the cell pass skips continuity and the
	// cell records. An RK4 stage writes tmp = loopS + loopW*k and
	// sum = loopSum + loopA*k; the closing update writes
	// loopS = sum + loopA*k.
	loopS   *State
	loopOut *State
	loopD   *Diagnostics
	loopOW  []float64
	loopSum *State
	loopW   float64
	loopA   float64

	diagCells   func(lo, hi int)
	diagVerts   func(lo, hi int)
	momentum    func(lo, hi int)
	owVelocity  func(lo, hi int)
	owProject   func(lo, hi int)
	owGradient  func(lo, hi int)
	stageCells  func(lo, hi int)
	stageEdges  func(lo, hi int)
	finishCells func(lo, hi int)
	finishEdges func(lo, hi int)
}

// ensureStages allocates the RK4 states on first use.
func (md *Model) ensureStages() {
	if md.sc.tmp != nil {
		return
	}
	m := md.Mesh
	md.sc.k = NewState(m.NCells(), m.NEdges())
	md.sc.tmp = NewState(m.NCells(), m.NEdges())
	md.sc.sum = NewState(m.NCells(), m.NEdges())
}

// ensureDiag returns the model's reusable diagnostics buffer, allocating it
// on first use. A tendency evaluation writes only its vorticity (the cell
// records take the cell fields' place) and Okubo-Weiss only the cell
// velocities, so those are allocated only when vel is set, on the first
// Okubo-Weiss evaluation; the divergence and kinetic energy never are.
func (md *Model) ensureDiag(vel bool) *Diagnostics {
	m := md.Mesh
	if md.sc.diag == nil {
		md.sc.diag = &Diagnostics{Vorticity: make([]float64, m.NVertices())}
	}
	if d := md.sc.diag; vel && d.CellVelocity == nil {
		d.CellVelocity = make([]mesh.Vec3, m.NCells())
	}
	return md.sc.diag
}

// ensureOkubo allocates the Okubo-Weiss projection scratch and the
// precomputed per-cell tangent bases on first use.
func (md *Model) ensureOkubo() {
	if md.sc.owComp != nil {
		return
	}
	m := md.Mesh
	md.sc.owComp = make([]uvComp, m.NCells())
	md.cellEast = make([]mesh.Vec3, m.NCells())
	md.cellNorth = make([]mesh.Vec3, m.NCells())
	for ci := range m.Cells {
		md.cellEast[ci], md.cellNorth[ci] = mesh.TangentBasis(m.Cells[ci].Center)
	}
}

// initLoopBindings creates the bound loop bodies. Called once from
// NewModel, after the reconstruction and gradient operators are built.
//
// The cell and vertex passes read the slot-major coefficients built at
// NewModel instead of mesh.Edge, and momentum reads the cell records. Three
// exact identities keep every value bit-identical to the struct-reading
// loops they replace:
//
//   - multiplying by ±1 is exact and IEEE rounding is sign-symmetric, so
//     (s·u)·Dv ≡ u·(s·Dv), and likewise for the flux and the circulation;
//   - IEEE addition is commutative, so 0.5·(h[c0]+h[c1]) ≡ 0.5·(h[ci]+h[nb])
//     whichever side of the edge ci is;
//   - Dc·Dv·0.25·u·u is evaluated left to right, so its first two products
//     can be precomputed.
func (md *Model) initLoopBindings() {
	// Cell pass: divergence, kinetic energy and reconstructed velocity at
	// cells. When loopOut is set it also evaluates the continuity
	// equation dh/dt = -div(h u), which walks the same edges, and writes
	// those cell fields as the records momentum reads.
	md.sc.diagCells = func(lo, hi int) {
		cells, off := md.Mesh.Cells, md.cellOff
		recon, signDv, keCoef := md.recon, md.slotSignDv, md.slotKE
		s, d, out, rec := md.sc.loopS, md.sc.loopD, md.sc.loopOut, md.sc.rec
		h, un := s.Thickness, s.NormalVelocity
		divOut, keOut, velOut := d.Divergence, d.KineticEnergy, d.CellVelocity
		for ci := lo; ci < hi; ci++ {
			c := &cells[ci]
			es := c.Edges
			o0, o1 := off[ci], off[ci+1]
			r, sdv, kc := recon[o0:o1], signDv[o0:o1], keCoef[o0:o1]
			r, sdv, kc = r[:len(es)], sdv[:len(es)], kc[:len(es)]
			// The loop-invariant out test is hoisted out of the edge loop:
			// the branch inside measured a few percent slower serially.
			var div, ke, flux, vx, vy, vz float64
			if out == nil {
				for k, ei := range es {
					u := un[ei]
					div += u * sdv[k]
					ke += kc[k] * u * u
					rk := &r[k]
					vx += u * rk[0]
					vy += u * rk[1]
					vz += u * rk[2]
				}
			} else {
				nbs, hc := c.Neighbors[:len(es)], h[ci]
				for k, ei := range es {
					u := un[ei]
					div += u * sdv[k]
					ke += kc[k] * u * u
					rk := &r[k]
					vx += u * rk[0]
					vy += u * rk[1]
					vz += u * rk[2]
					he := 0.5 * (hc + h[nbs[k]])
					flux += u * he * sdv[k]
				}
			}
			dv, kv, vel := div/c.Area, ke/c.Area, mesh.Vec3{vx, vy, vz}
			if out == nil {
				divOut[ci], keOut[ci], velOut[ci] = dv, kv, vel
			} else {
				out.Thickness[ci] = -flux / c.Area
				rec[ci] = cellRecord{vel: vel, bern: kv + Gravity*h[ci], div: dv}
			}
		}
	}

	// Diagnostics: relative vorticity at dual vertices.
	md.sc.diagVerts = func(lo, hi int) {
		verts, coef := md.Mesh.Vertices, md.vertexSignDc
		un, vort := md.sc.loopS.NormalVelocity, md.sc.loopD.Vorticity
		for vi := lo; vi < hi; vi++ {
			v, cf := &verts[vi], &coef[vi]
			var circ float64
			for k, ei := range v.Edges {
				circ += un[ei] * cf[k]
			}
			vort[vi] = circ / v.Area
		}
	}

	// Momentum equation: du/dt = q u_perp - grad_n(K + g h) + nu del2(u).
	md.sc.momentum = func(lo, hi int) {
		edges, rec, vort := md.Mesh.Edges, md.sc.rec, md.sc.loopD.Vorticity
		tendOut := md.sc.loopOut.NormalVelocity
		fEdge, tSign := md.coriolisEdge, md.vertexTangentSign
		visc := md.Viscosity
		for ei := lo; ei < hi; ei++ {
			e := &edges[ei]
			r0, r1 := &rec[e.Cells[0]], &rec[e.Cells[1]]
			v0, v1 := e.Vertices[0], e.Vertices[1]

			// Absolute vorticity at the edge.
			zeta := 0.5 * (vort[v0] + vort[v1])
			q := fEdge[ei] + zeta

			// Tangential velocity from the averaged cell reconstructions:
			// (a+b).Scale(0.5).Dot(Tangent), written out.
			a, b, t := &r0.vel, &r1.vel, &e.Tangent
			uperp := 0.5*(a[0]+b[0])*t[0] + 0.5*(a[1]+b[1])*t[1] + 0.5*(a[2]+b[2])*t[2]

			// Bernoulli gradient along the normal.
			grad := (r1.bern - r0.bern) / e.Dc

			tend := q*uperp - grad

			if visc > 0 {
				// del2(u) = grad_n(div) - grad_t(zeta).
				lap := (r1.div-r0.div)/e.Dc -
					tSign[ei]*(vort[v1]-vort[v0])/e.Dv
				tend += visc * lap
			}
			tendOut[ei] = tend
		}
	}

	// Okubo-Weiss from a state: the cell pass's velocity reconstruction
	// alone, each component accumulated in the same order, so the
	// velocities are bit-identical to the diagnostics' CellVelocity.
	md.sc.owVelocity = func(lo, hi int) {
		cells, off, recon := md.Mesh.Cells, md.cellOff, md.recon
		un, velOut := md.sc.loopS.NormalVelocity, md.sc.loopD.CellVelocity
		for ci := lo; ci < hi; ci++ {
			es := cells[ci].Edges
			r := recon[off[ci]:off[ci+1]][:len(es)]
			var vx, vy, vz float64
			for k, ei := range es {
				u := un[ei]
				rk := &r[k]
				vx += u * rk[0]
				vy += u * rk[1]
				vz += u * rk[2]
			}
			velOut[ci] = mesh.Vec3{vx, vy, vz}
		}
	}

	// Okubo-Weiss phase 1: each cell's reconstructed velocity in its own
	// local basis.
	md.sc.owProject = func(lo, hi int) {
		vel, comp := md.sc.loopD.CellVelocity, md.sc.owComp
		easts, norths := md.cellEast, md.cellNorth
		for ci := lo; ci < hi; ci++ {
			v, east, north := &vel[ci], &easts[ci], &norths[ci]
			comp[ci] = uvComp{
				u: v[0]*east[0] + v[1]*east[1] + v[2]*east[2],
				v: v[0]*north[0] + v[1]*north[1] + v[2]*north[2],
			}
		}
	}

	// Okubo-Weiss phase 2: least-squares velocity gradients and
	// W = s_n^2 + s_s^2 - omega^2.
	md.sc.owGradient = func(lo, hi int) {
		cells, off, vel, w := md.Mesh.Cells, md.cellOff, md.sc.loopD.CellVelocity, md.sc.loopOW
		comp, easts, norths, grads := md.sc.owComp, md.cellEast, md.cellNorth, md.gradWeights
		for ci := lo; ci < hi; ci++ {
			nbs := cells[ci].Neighbors
			east, north := &easts[ci], &norths[ci]
			ex, ey, ez := east[0], east[1], east[2]
			nx, ny, nz := north[0], north[1], north[2]
			gws := grads[off[ci]:off[ci+1]][:len(nbs)]
			// Express the center and neighbor velocities in the center
			// cell's basis; for neighbors the 3D tangent vector is
			// projected, which is accurate to O(spacing/R).
			u0 := comp[ci].u
			v0 := comp[ci].v
			var ux, uy, vx, vy float64
			for k, nb := range nbs {
				v := &vel[nb]
				du := v[0]*ex + v[1]*ey + v[2]*ez - u0
				dv := v[0]*nx + v[1]*ny + v[2]*nz - v0
				gw := &gws[k]
				ux += gw[0] * du
				uy += gw[1] * du
				vx += gw[0] * dv
				vy += gw[1] * dv
			}
			sn := ux - vy
			ss := vx + uy
			om := vx - uy
			w[ci] = sn*sn + ss*ss - om*om
		}
	}

	// RK4 stage update: tmp = s + w*k and sum = loopSum + a*k in one pass
	// per field. The first stage reads the sum from s; later stages
	// accumulate in place.
	md.sc.stageCells = func(lo, hi int) {
		sc := &md.sc
		stageInto(sc.tmp.Thickness[lo:hi], sc.sum.Thickness[lo:hi], sc.loopS.Thickness[lo:hi],
			sc.loopSum.Thickness[lo:hi], sc.k.Thickness[lo:hi], sc.loopW, sc.loopA)
	}
	md.sc.stageEdges = func(lo, hi int) {
		sc := &md.sc
		stageInto(sc.tmp.NormalVelocity[lo:hi], sc.sum.NormalVelocity[lo:hi], sc.loopS.NormalVelocity[lo:hi],
			sc.loopSum.NormalVelocity[lo:hi], sc.k.NormalVelocity[lo:hi], sc.loopW, sc.loopA)
	}

	// RK4 closing update: s = sum + dt/6 k4 in one pass per field.
	md.sc.finishCells = func(lo, hi int) {
		sc := &md.sc
		axpyInto(sc.loopS.Thickness[lo:hi], sc.sum.Thickness[lo:hi], sc.k.Thickness[lo:hi], sc.loopA)
	}
	md.sc.finishEdges = func(lo, hi int) {
		sc := &md.sc
		axpyInto(sc.loopS.NormalVelocity[lo:hi], sc.sum.NormalVelocity[lo:hi], sc.k.NormalVelocity[lo:hi], sc.loopA)
	}
}

// axpyInto writes dst[i] = x[i] + w*y[i].
func axpyInto(dst, x, y []float64, w float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] + w*y[i]
	}
}

// stageInto writes one RK4 stage: tmp[i] = s[i] + w*k[i] and
// sum[i] = acc[i] + a*k[i]. acc may alias sum.
func stageInto(tmp, sum, s, acc, k []float64, w, a float64) {
	sum, s, acc, k = sum[:len(tmp)], s[:len(tmp)], acc[:len(tmp)], k[:len(tmp)]
	for i := range tmp {
		ki := k[i]
		tmp[i] = s[i] + w*ki
		sum[i] = acc[i] + a*ki
	}
}
