// Package kernels implements the real serial compute kernels of the
// paper's experiments in pure Go: the straightforward ("naive") dense
// matrix multiplication with inefficient memory reference patterns, a
// blocked cache-friendlier multiplication standing in for the ATLAS dgemm
// variant, LU factorization with partial pivoting, and the streaming array
// operation. They are used to measure genuine speed points on the host
// (feeding the §3.1 model builder) and to execute the example applications
// for real.
package kernels

import (
	"errors"
	"fmt"
	"math"

	"heteropart/internal/matrix"
)

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("kernels: incompatible shapes")

// MatMulNaive computes c = a×b with the textbook i-j-k loop order, whose
// inner loop strides down b's columns — the memory reference pattern the
// paper's MatrixMult application uses, producing smooth decreasing speed
// curves.
func MatMulNaive(c, a, b *matrix.Dense) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("%w: (%d×%d)·(%d×%d)→(%d×%d)", ErrShape,
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			crow[j] = s
		}
	}
	return nil
}

// MatMulBlocked computes c = a×b with i-k-j loop order over square tiles,
// the cache-tuned kernel standing in for MatrixMultATLAS.
func MatMulBlocked(c, a, b *matrix.Dense, block int) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("%w: (%d×%d)·(%d×%d)→(%d×%d)", ErrShape,
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	if block <= 0 {
		block = 64
	}
	for i := range c.Data {
		c.Data[i] = 0
	}
	n, m, p := a.Rows, a.Cols, b.Cols
	for ii := 0; ii < n; ii += block {
		iMax := min(ii+block, n)
		for kk := 0; kk < m; kk += block {
			kMax := min(kk+block, m)
			for jj := 0; jj < p; jj += block {
				jMax := min(jj+block, p)
				for i := ii; i < iMax; i++ {
					crow := c.Row(i)
					for k := kk; k < kMax; k++ {
						aik := a.At(i, k)
						brow := b.Row(k)
						for j := jj; j < jMax; j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	}
	return nil
}

// abtTile is the number of b rows MatMulABT sweeps at a time: a tile of
// 64 rows of length n = 1024 is 512 KiB, small enough to stay in L2 while
// every pair of a rows passes over it.
const abtTile = 64

// MatMulABT computes c = a×bᵀ, the matrix operation of the paper's first
// application (Figure 16). Both a and b are stored row-major, so the inner
// product runs along two contiguous rows.
//
// The kernel sweeps b in tiles of abtTile rows and computes C in 2×2
// blocks, four independent dot products sharing each load of a and b.
// Every element is still one k-ascending sum s += a[i][k]·b[j][k] starting
// at 0, so the result is bit-identical to the plain one-dot-per-element
// loop.
func MatMulABT(c, a, b *matrix.Dense) error {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		return fmt.Errorf("%w: (%d×%d)·(%d×%d)ᵀ→(%d×%d)", ErrShape,
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	for j0 := 0; j0 < b.Rows; j0 += abtTile {
		j1 := min(j0+abtTile, b.Rows)
		i := 0
		for ; i+1 < a.Rows; i += 2 {
			a0, a1 := a.Row(i), a.Row(i+1)
			c0, c1 := c.Row(i), c.Row(i+1)
			j := j0
			for ; j+1 < j1; j += 2 {
				c0[j], c0[j+1], c1[j], c1[j+1] = dot2x2(a0, a1, b.Row(j), b.Row(j+1))
			}
			if j < j1 {
				bj := b.Row(j)
				c0[j], c1[j] = dot(a0, bj), dot(a1, bj)
			}
		}
		if i < a.Rows {
			ai, ci := a.Row(i), c.Row(i)
			for j := j0; j < j1; j++ {
				ci[j] = dot(ai, b.Row(j))
			}
		}
	}
	return nil
}

// dot is the k-ascending inner product of two equal-length rows.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for k := range x {
		s += x[k] * y[k]
	}
	return s
}

// dot2x2 returns the four inner products x0·y0, x0·y1, x1·y0 and x1·y1 of
// equal-length rows, each accumulated exactly as dot accumulates it.
func dot2x2(x0, x1, y0, y1 []float64) (s00, s01, s10, s11 float64) {
	x1, y0, y1 = x1[:len(x0)], y0[:len(x0)], y1[:len(x0)]
	for k, u := range x0 {
		v, p, q := x1[k], y0[k], y1[k]
		s00 += u * p
		s01 += u * q
		s10 += v * p
		s11 += v * q
	}
	return
}

// LUFactorize overwrites a with its LU factorization using partial
// pivoting: A[perm] = L·U with unit-diagonal L stored below the diagonal
// and U on and above it. It returns the row permutation and an error for
// singular matrices.
func LUFactorize(a *matrix.Dense) ([]int, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %d×%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot: largest magnitude in column k at or below the diagonal.
		p, best := k, math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.At(i, k)); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("kernels: singular matrix at column %d", k)
		}
		if p != k {
			rk, rp := a.Row(k), a.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		pivot := a.At(k, k)
		for i := k + 1; i < n; i++ {
			l := a.At(i, k) / pivot
			a.Set(i, k, l)
			if l == 0 {
				continue
			}
			ri, rk := a.Row(i), a.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
	}
	return perm, nil
}

// LUReconstruct multiplies the L and U factors stored in lu back together
// and undoes the permutation, returning a matrix comparable to the
// original input. Used by tests and verification.
func LUReconstruct(lu *matrix.Dense, perm []int) (*matrix.Dense, error) {
	if lu.Rows != lu.Cols || len(perm) != lu.Rows {
		return nil, fmt.Errorf("%w: reconstruct %d×%d with %d permutations",
			ErrShape, lu.Rows, lu.Cols, len(perm))
	}
	n := lu.Rows
	prod := matrix.MustNew(n, n)
	// (L·U)[i][j] = Σ_{k≤min(i,j)} L[i][k]·U[k][j], L unit lower, U upper.
	// Accumulate row-wise over contiguous Row() slices instead of repeated
	// bounds-checked At() column walks; per element the additions still run
	// in ascending k, so the result is unchanged.
	for i := 0; i < n; i++ {
		li, prow := lu.Row(i), prod.Row(i)
		for k := 0; k <= i; k++ {
			l := li[k]
			if k == i {
				l = 1
			}
			uk := lu.Row(k)
			for j := k; j < n; j++ {
				prow[j] += l * uk[j]
			}
		}
	}
	// prod = P·A; undo: A[perm[i]] = prod[i].
	out := matrix.MustNew(n, n)
	for i := 0; i < n; i++ {
		copy(out.Row(perm[i]), prod.Row(i))
	}
	return out, nil
}

// ArrayOps applies the streaming per-element operation of the ArrayOpsF
// benchmark to src, writing into dst, and returns the flop count. Both
// slices must have the same length.
func ArrayOps(dst, src []float64) (flops float64, err error) {
	if len(dst) != len(src) {
		return 0, fmt.Errorf("%w: arrays %d vs %d", ErrShape, len(dst), len(src))
	}
	for i, v := range src {
		// 10 floating point operations per element.
		v2 := v * v
		dst[i] = ((v2+1.5)*v-2.25)*v2 + (v-0.5)*(v+0.25) + v2*0.125
	}
	return 10 * float64(len(src)), nil
}

// Flop counts for the kernels (the paper's computation volumes).

// FlopsMatMul is 2·n³ for an n×n multiplication.
func FlopsMatMul(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }

// FlopsMatMulRect is 2·r·c·inner for an (r×inner)·(inner×c) product.
func FlopsMatMulRect(r, inner, c int) float64 {
	return 2 * float64(r) * float64(inner) * float64(c)
}

// FlopsLU is (2/3)·n³ for an n×n factorization.
func FlopsLU(n int) float64 { return 2.0 / 3.0 * float64(n) * float64(n) * float64(n) }
