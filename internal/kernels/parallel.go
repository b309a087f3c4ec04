package kernels

import (
	"fmt"
	"math"

	"heteropart/internal/matrix"
	"heteropart/internal/pool"
)

// Parallel kernels: multi-threaded variants of the hot serial kernels,
// fanned out over a shared worker pool (internal/pool). Each variant is
// bit-identical to its serial counterpart — parallelism only partitions
// independent output rows, never reorders a floating point accumulation —
// so the tests assert exact equality, and either kernel can feed the §3.1
// speed-function builder.
//
// Every function accepts a nil *pool.Pool and substitutes pool.Shared();
// pass pool.Sized(w) to measure a specific worker count.

// luParallelMinWork is the trailing-update flop count below which the
// parallel LU falls back to inline row updates: near the bottom-right
// corner of the matrix the fan-out handoff costs more than the update.
// The threshold affects scheduling only, never results.
const luParallelMinWork = 16 * 1024

// MatMulParallel computes c = a×b, fanning row panels of C out over the
// pool. Each panel runs the same blocked i-k-j tile loop as MatMulBlocked
// with the B tile packed into a contiguous scratch buffer, which removes
// the large-stride B accesses that make MatMulNaive collapse on big
// matrices. Accumulation order per element is k-ascending, so the result
// is bit-identical to both MatMulBlocked and MatMulNaive.
func MatMulParallel(pl *pool.Pool, c, a, b *matrix.Dense, block int) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("%w: (%d×%d)·(%d×%d)→(%d×%d)", ErrShape,
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	if block <= 0 {
		block = 64
	}
	if pl == nil {
		pl = pool.Shared()
	}
	n, m, p := a.Rows, a.Cols, b.Cols
	panels := (n + block - 1) / block
	pl.Run(panels, func(pi int) {
		ii := pi * block
		iMax := min(ii+block, n)
		for i := ii; i < iMax; i++ {
			crow := c.Row(i)
			for j := range crow {
				crow[j] = 0
			}
		}
		buf := matrix.GetBuffer(block * block)
		defer matrix.PutBuffer(buf)
		for kk := 0; kk < m; kk += block {
			kMax := min(kk+block, m)
			for jj := 0; jj < p; jj += block {
				jMax := min(jj+block, p)
				// Pack the B tile [kk,kMax)×[jj,jMax) contiguously.
				w := jMax - jj
				for k := kk; k < kMax; k++ {
					copy(buf[(k-kk)*w:(k-kk+1)*w], b.Row(k)[jj:jMax])
				}
				for i := ii; i < iMax; i++ {
					crow := c.Row(i)[jj:jMax]
					arow := a.Row(i)
					for k := kk; k < kMax; k++ {
						aik := arow[k]
						brow := buf[(k-kk)*w : (k-kk)*w+w]
						for j, bv := range brow {
							crow[j] += aik * bv
						}
					}
				}
			}
		}
	})
	return nil
}

// MatMulABTParallel computes c = a×bᵀ — the application kernel of the
// paper's first experiment — with row panels of C fanned out over the
// pool. Each panel runs MatMulABT on row-stripe views; rows are
// independent dot products, so the result is bit-identical to MatMulABT.
func MatMulABTParallel(pl *pool.Pool, c, a, b *matrix.Dense) error {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		return fmt.Errorf("%w: (%d×%d)·(%d×%d)ᵀ→(%d×%d)", ErrShape,
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	if pl == nil {
		pl = pool.Shared()
	}
	const panel = 32
	panels := (a.Rows + panel - 1) / panel
	pl.Run(panels, func(pi int) {
		lo := pi * panel
		hi := min(lo+panel, a.Rows)
		// The stripes are in range and the shapes were checked above, so
		// neither call can fail.
		as, _ := a.RowStripe(lo, hi)
		cs, _ := c.RowStripe(lo, hi)
		_ = MatMulABT(cs, as, b)
	})
	return nil
}

// LUFactorizeParallel overwrites a with its LU factorization exactly like
// LUFactorize — same pivot sequence, same arithmetic per row — but fans
// the trailing-submatrix row updates of each elimination step out over the
// pool. The pivot search and row swap stay serial (they are O(n) against
// the update's O(n²)); each trailing row's scale-and-subtract is
// independent, so the factors and permutation are bit-identical to the
// serial kernel's.
func LUFactorizeParallel(pl *pool.Pool, a *matrix.Dense) ([]int, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %d×%d", ErrShape, a.Rows, a.Cols)
	}
	if pl == nil {
		pl = pool.Shared()
	}
	n := a.Rows
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	const chunk = 16
	for k := 0; k < n; k++ {
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
		rows := n - k - 1
		update := func(i int) {
			l := a.At(i, k) / pivot
			a.Set(i, k, l)
			if l == 0 {
				return
			}
			ri, rk := a.Row(i), a.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= l * rk[j]
			}
		}
		if 2*rows*(n-k) < luParallelMinWork {
			for i := k + 1; i < n; i++ {
				update(i)
			}
			continue
		}
		chunks := (rows + chunk - 1) / chunk
		pl.Run(chunks, func(ci int) {
			lo := k + 1 + ci*chunk
			hi := min(lo+chunk, n)
			for i := lo; i < hi; i++ {
				update(i)
			}
		})
	}
	return perm, nil
}
