package ocean

import (
	"insituviz/internal/mesh"
	"insituviz/internal/workpool"
)

// uvComp is a reconstructed cell velocity expressed in the cell's own local
// (east, north) tangent basis.
type uvComp struct{ u, v float64 }

// stepScratch holds the preallocated stage states, diagnostics buffer, and
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
	stages [4]*State // RK4 slope states k1..k4
	tmp    *State    // intermediate state the slopes are evaluated at
	diag   *Diagnostics
	owComp []uvComp
	ow     []float64 // OkuboWeiss's owned output buffer

	// pair holds the fused fan-out headers of parallelPair, so building a
	// two-loop fan-out writes two structs instead of allocating a slice.
	pair [2]workpool.Loop

	// Loop operands for the bound closures. loopOut is nil on the
	// diagnostics-only path, where the cell pass skips continuity; loopK
	// and loopW are the slope and weight of an RK4 stage update, loopW
	// the full timestep in the closing update.
	loopS   *State
	loopOut *State
	loopD   *Diagnostics
	loopOW  []float64
	loopK   *State
	loopW   float64

	diagCells   func(lo, hi int)
	diagVerts   func(lo, hi int)
	momentum    func(lo, hi int)
	owProject   func(lo, hi int)
	owGradient  func(lo, hi int)
	stageCells  func(lo, hi int)
	stageEdges  func(lo, hi int)
	finishCells func(lo, hi int)
	finishEdges func(lo, hi int)
}

// ensureStages allocates the RK4 stage and intermediate states on first use.
func (md *Model) ensureStages() {
	if md.sc.tmp != nil {
		return
	}
	m := md.Mesh
	for i := range md.sc.stages {
		md.sc.stages[i] = NewState(m.NCells(), m.NEdges())
	}
	md.sc.tmp = NewState(m.NCells(), m.NEdges())
}

// ensureDiag returns the model's reusable diagnostics buffer, allocating it
// on first use.
func (md *Model) ensureDiag() *Diagnostics {
	if md.sc.diag == nil {
		md.sc.diag = md.NewDiagnostics()
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
func (md *Model) initLoopBindings() {
	// Cell pass: divergence, kinetic energy and reconstructed velocity at
	// cells and, when loopOut is set, the continuity equation
	// dh/dt = -div(h u), which walks the same edges.
	md.sc.diagCells = func(lo, hi int) {
		cells, edges, recon := md.Mesh.Cells, md.Mesh.Edges, md.recon
		s, d, out := md.sc.loopS, md.sc.loopD, md.sc.loopOut
		h, un := s.Thickness, s.NormalVelocity
		divOut, keOut, velOut := d.Divergence, d.KineticEnergy, d.CellVelocity
		for ci := lo; ci < hi; ci++ {
			c := &cells[ci]
			ne := len(c.Edges)
			signs, r := c.EdgeSigns[:ne], recon[ci][:ne]
			var div, ke, flux, vx, vy, vz float64
			for k, ei := range c.Edges {
				e := &edges[ei]
				u := un[ei]
				su := float64(signs[k]) * u
				div += su * e.Dv
				ke += e.Dc * e.Dv * 0.25 * u * u
				rk := &r[k]
				vx += u * rk[0]
				vy += u * rk[1]
				vz += u * rk[2]
				if out != nil {
					he := 0.5 * (h[e.Cells[0]] + h[e.Cells[1]])
					flux += su * he * e.Dv
				}
			}
			divOut[ci] = div / c.Area
			keOut[ci] = ke / c.Area
			velOut[ci] = mesh.Vec3{vx, vy, vz}
			if out != nil {
				out.Thickness[ci] = -flux / c.Area
			}
		}
	}

	// Diagnostics: relative vorticity at dual vertices.
	md.sc.diagVerts = func(lo, hi int) {
		verts, edges := md.Mesh.Vertices, md.Mesh.Edges
		un, vort := md.sc.loopS.NormalVelocity, md.sc.loopD.Vorticity
		for vi := lo; vi < hi; vi++ {
			v := &verts[vi]
			var circ float64
			for k := range v.Edges {
				ei := v.Edges[k]
				circ += float64(v.EdgeSigns[k]) * un[ei] * edges[ei].Dc
			}
			vort[vi] = circ / v.Area
		}
	}

	// Momentum equation: du/dt = q u_perp - grad_n(K + g h) + nu del2(u).
	md.sc.momentum = func(lo, hi int) {
		edges, s, d := md.Mesh.Edges, md.sc.loopS, md.sc.loopD
		h, tendOut := s.Thickness, md.sc.loopOut.NormalVelocity
		vort, kin, div, vel := d.Vorticity, d.KineticEnergy, d.Divergence, d.CellVelocity
		fEdge, tSign := md.coriolisEdge, md.vertexTangentSign
		visc := md.Viscosity
		for ei := lo; ei < hi; ei++ {
			e := &edges[ei]
			c0, c1 := e.Cells[0], e.Cells[1]
			v0, v1 := e.Vertices[0], e.Vertices[1]

			// Absolute vorticity at the edge.
			zeta := 0.5 * (vort[v0] + vort[v1])
			q := fEdge[ei] + zeta

			// Tangential velocity from the averaged cell reconstructions:
			// (a+b).Scale(0.5).Dot(Tangent), written out.
			a, b, t := &vel[c0], &vel[c1], &e.Tangent
			uperp := 0.5*(a[0]+b[0])*t[0] + 0.5*(a[1]+b[1])*t[1] + 0.5*(a[2]+b[2])*t[2]

			// Bernoulli gradient along the normal.
			bern0 := kin[c0] + Gravity*h[c0]
			bern1 := kin[c1] + Gravity*h[c1]
			grad := (bern1 - bern0) / e.Dc

			tend := q*uperp - grad

			if visc > 0 {
				// del2(u) = grad_n(div) - grad_t(zeta).
				lap := (div[c1]-div[c0])/e.Dc -
					tSign[ei]*(vort[v1]-vort[v0])/e.Dv
				tend += visc * lap
			}
			tendOut[ei] = tend
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
		cells, vel, w := md.Mesh.Cells, md.sc.loopD.CellVelocity, md.sc.loopOW
		comp, easts, norths, grads := md.sc.owComp, md.cellEast, md.cellNorth, md.gradWeights
		for ci := lo; ci < hi; ci++ {
			c := &cells[ci]
			east, north := &easts[ci], &norths[ci]
			ex, ey, ez := east[0], east[1], east[2]
			nx, ny, nz := north[0], north[1], north[2]
			gws := grads[ci][:len(c.Neighbors)]
			// Express the center and neighbor velocities in the center
			// cell's basis; for neighbors the 3D tangent vector is
			// projected, which is accurate to O(spacing/R).
			u0 := comp[ci].u
			v0 := comp[ci].v
			var ux, uy, vx, vy float64
			for k, nb := range c.Neighbors {
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

	// RK4 stage update: tmp = s + w*k in one pass per field.
	md.sc.stageCells = func(lo, hi int) {
		sc := &md.sc
		axpyInto(sc.tmp.Thickness[lo:hi], sc.loopS.Thickness[lo:hi], sc.loopK.Thickness[lo:hi], sc.loopW)
	}
	md.sc.stageEdges = func(lo, hi int) {
		sc := &md.sc
		axpyInto(sc.tmp.NormalVelocity[lo:hi], sc.loopS.NormalVelocity[lo:hi], sc.loopK.NormalVelocity[lo:hi], sc.loopW)
	}

	// RK4 closing update: s += dt/6 k1 + dt/3 k2 + dt/3 k3 + dt/6 k4 in
	// one pass per field.
	md.sc.finishCells = func(lo, hi int) {
		sc := &md.sc
		k := &sc.stages
		rk4Into(sc.loopS.Thickness[lo:hi], k[0].Thickness[lo:hi], k[1].Thickness[lo:hi],
			k[2].Thickness[lo:hi], k[3].Thickness[lo:hi], sc.loopW)
	}
	md.sc.finishEdges = func(lo, hi int) {
		sc := &md.sc
		k := &sc.stages
		rk4Into(sc.loopS.NormalVelocity[lo:hi], k[0].NormalVelocity[lo:hi], k[1].NormalVelocity[lo:hi],
			k[2].NormalVelocity[lo:hi], k[3].NormalVelocity[lo:hi], sc.loopW)
	}
}

// axpyInto writes dst[i] = x[i] + w*y[i].
func axpyInto(dst, x, y []float64, w float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] + w*y[i]
	}
}

// rk4Into applies the closing RK4 update to x in place, adding the four
// weighted slopes one after another in stage order, exactly as four
// separate in-place passes would.
func rk4Into(x, k1, k2, k3, k4 []float64, dt float64) {
	a, b := dt/6, dt/3
	k1, k2, k3, k4 = k1[:len(x)], k2[:len(x)], k3[:len(x)], k4[:len(x)]
	for i := range x {
		v := x[i]
		v += a * k1[i]
		v += b * k2[i]
		v += b * k3[i]
		v += a * k4[i]
		x[i] = v
	}
}
