package linalg

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu   *Matrix // combined L (unit lower, implicit diagonal) and U
	piv  []int   // row permutation
	sign int     // permutation parity, for determinants
}

// Factor computes the LU factorization of the square matrix a with partial
// pivoting. It returns ErrSingular if a pivot is exactly zero or smaller
// than a conservative numerical threshold relative to the matrix scale.
// Loops that factor many same-sized systems should reuse one LU through
// Refactor instead.
func Factor(a *Matrix) (*LU, error) {
	var f LU
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return &f, nil
}

// Refactor computes the LU factorization of a into f, reusing f's storage
// when the dimensions match: the allocation-free form of Factor. The zero
// LU is ready for use; after an error f holds no valid factorization.
func (f *LU) Refactor(a *Matrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("%w: Factor requires a square matrix, got %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	if f.lu == nil || f.lu.rows != n || f.lu.cols != n {
		f.lu = NewMatrix(n, n)
		f.piv = make([]int, n)
	}
	lu, piv := f.lu, f.piv
	copy(lu.data, a.data)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	scale := lu.MaxAbs()
	tol := scale * 1e-14 * float64(n)
	if scale == 0 {
		return fmt.Errorf("%w: zero matrix", ErrSingular)
	}
	for k := 0; k < n; k++ {
		// Find the pivot row.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if mx <= tol {
			return fmt.Errorf("%w: pivot %d is %g (tolerance %g)", ErrSingular, k, mx, tol)
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			mult := lu.At(i, k) / pivot
			lu.Set(i, k, mult)
			if mult == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-mult*lu.At(k, j))
			}
		}
	}
	f.sign = sign
	return nil
}

func swapRows(m *Matrix, a, b int) {
	ra := m.data[a*m.cols : (a+1)*m.cols]
	rb := m.data[b*m.cols : (b+1)*m.cols]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// Solve solves A*x = b for x using the factorization. The result is
// freshly allocated; hot loops should reuse a buffer through SolveInto.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.rows)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A*x = b into x, which must have length n and not alias
// b: the allocation-free form of Solve.
func (f *LU) SolveInto(x, b []float64) error {
	n := f.lu.rows
	if len(b) != n {
		return fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), n)
	}
	if len(x) != n {
		return fmt.Errorf("%w: solution length %d, want %d", ErrShape, len(x), n)
	}
	// Apply the permutation.
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution (L has implicit unit diagonal).
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
		x[i] /= f.lu.At(i, i)
	}
	return nil
}

// Solve solves the square system A*x = b in one call.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// LeastSquares solves the overdetermined system A*x ~= b in the
// least-squares sense using Householder QR. A must have at least as many
// rows as columns and full column rank.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if len(b) != m {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), m)
	}
	if m < n {
		return nil, fmt.Errorf("%w: underdetermined system %dx%d", ErrShape, m, n)
	}
	r := a.Clone()
	qtb := make([]float64, m)
	copy(qtb, b)
	scale := r.MaxAbs()
	if scale == 0 {
		return nil, fmt.Errorf("%w: zero design matrix", ErrSingular)
	}
	tol := scale * 1e-13 * float64(m)
	for k := 0; k < n; k++ {
		// Householder reflection zeroing column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm <= tol {
			return nil, fmt.Errorf("%w: column %d is numerically rank deficient", ErrSingular, k)
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		// v = x - norm*e1, stored in-place (column k, rows k..m-1).
		for i := k; i < m; i++ {
			r.Set(i, k, r.At(i, k)/norm)
		}
		r.Set(k, k, r.At(k, k)-1) // note: now r[k][k] = x_k/norm - 1 <= -1
		vkk := r.At(k, k)
		// Apply the reflector to the remaining columns and to qtb:
		// y <- y - (v'y / v_k) * v  where v_k = r[k][k].
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += r.At(i, k) * r.At(i, j)
			}
			s /= vkk
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)+s*r.At(i, k))
			}
		}
		var s float64
		for i := k; i < m; i++ {
			s += r.At(i, k) * qtb[i]
		}
		s /= vkk
		for i := k; i < m; i++ {
			qtb[i] += s * r.At(i, k)
		}
		// Store the R diagonal value in place of the reflector head; the
		// sub-diagonal reflector entries are no longer needed for solving.
		r.Set(k, k, norm)
	}
	// Back substitution with the upper-triangular R (rows 0..n-1).
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		x[i] = s / r.At(i, i)
	}
	return x, nil
}
