package lu

import (
	"fmt"
	"math"
	"time"

	"heteropart/internal/matrix"
	"heteropart/internal/pool"
)

// Execute really factorizes a copy of the n×n matrix a in parallel under
// the distribution: a right-looking blocked LU with partial pivoting where
// the owner of each block column factorizes its panel and every processor
// updates its own trailing block columns concurrently (one goroutine per
// participating processor per step). It returns the packed LU factors, the
// row permutation, and the per-processor accumulated update times.
//
// The numerical behaviour matches kernels.LUFactorize: panel pivoting over
// fully updated columns produces the same pivot sequence as the unblocked
// algorithm, so kernels.LUReconstruct verifies the result.
func Execute(d Distribution, a *matrix.Dense, p int) (*matrix.Dense, []int, []float64, error) {
	return ExecuteWith(nil, d, a, p)
}

// ExecuteWith is Execute running the per-processor trailing updates on the
// given worker pool (nil selects pool.Shared()): one pool item per
// participating processor per step, so host concurrency is bounded by the
// pool width while the distribution semantics are unchanged.
func ExecuteWith(pl *pool.Pool, d Distribution, a *matrix.Dense, p int) (*matrix.Dense, []int, []float64, error) {
	n := d.N
	if a.Rows != n || a.Cols != n {
		return nil, nil, nil, fmt.Errorf("lu: distribution is for %d×%d, matrix is %d×%d",
			n, n, a.Rows, a.Cols)
	}
	if p <= 0 {
		return nil, nil, nil, fmt.Errorf("lu: invalid processor count %d", p)
	}
	for k, o := range d.Owners {
		if o < 0 || o >= p {
			return nil, nil, nil, fmt.Errorf("lu: owner[%d] = %d out of range", k, o)
		}
	}
	if pl == nil {
		pl = pool.Shared()
	}
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	times := make([]float64, p)
	b := d.B
	for k := 0; k < d.Blocks(); k++ {
		k0 := k * b
		w := min(b, n-k0)
		owner := d.Owners[k]
		start := time.Now()
		if err := panelFactor(lu, perm, k0, w); err != nil {
			return nil, nil, nil, err
		}
		times[owner] += time.Since(start).Seconds()
		if k0+w >= n {
			break
		}
		// Group the trailing block columns by owner and update in
		// parallel, one goroutine per participating processor.
		cols := make([][][2]int, p)
		for j := k + 1; j < d.Blocks(); j++ {
			j0 := j * b
			j1 := min(j0+b, n)
			o := d.Owners[j]
			cols[o] = append(cols[o], [2]int{j0, j1})
		}
		pl.Run(p, func(o int) {
			if len(cols[o]) == 0 {
				return
			}
			st := time.Now()
			for _, c := range cols[o] {
				updateBlock(lu, k0, w, c[0], c[1])
			}
			times[o] += time.Since(st).Seconds()
		})
	}
	return lu, perm, times, nil
}

// panelFactor factorizes the panel of width w starting at diagonal k0 with
// partial pivoting over the full trailing rows; row swaps apply to the
// whole matrix and are recorded in perm.
func panelFactor(lu *matrix.Dense, perm []int, k0, w int) error {
	n := lu.Rows
	for j := k0; j < k0+w; j++ {
		p, best := j, math.Abs(lu.At(j, j))
		for i := j + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, j)); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return fmt.Errorf("lu: singular matrix at column %d", j)
		}
		if p != j {
			rj, rp := lu.Row(j), lu.Row(p)
			for c := range rj {
				rj[c], rp[c] = rp[c], rj[c]
			}
			perm[j], perm[p] = perm[p], perm[j]
		}
		pivot := lu.At(j, j)
		for i := j + 1; i < n; i++ {
			l := lu.At(i, j) / pivot
			lu.Set(i, j, l)
			if l == 0 {
				continue
			}
			// Update only the remaining panel columns; the trailing
			// matrix is updated in the blocked step.
			ri, rj := lu.Row(i), lu.Row(j)
			for c := j + 1; c < k0+w; c++ {
				ri[c] -= l * rj[c]
			}
		}
	}
	return nil
}

// updateBlock applies the step-k transformation to the block column
// [j0, j1): the triangular solve U_kj = L_kk⁻¹·A_kj followed by the Schur
// update A_ij -= L_ik·U_kj.
//
// The Schur update holds 2 trailing rows × 4 columns in registers across
// the whole panel. Every element still receives its updates one at a time
// in ascending t, skipping a zero multiplier exactly as the one-row loop
// does, so the result is bit-identical to it.
func updateBlock(lu *matrix.Dense, k0, w, j0, j1 int) {
	n := lu.Rows
	// Triangular solve with the unit lower triangle at (k0, k0).
	for i := k0 + 1; i < k0+w; i++ {
		ri := lu.Row(i)
		for t := k0; t < i; t++ {
			l := lu.At(i, t)
			if l == 0 {
				continue
			}
			rt := lu.Row(t)
			for c := j0; c < j1; c++ {
				ri[c] -= l * rt[c]
			}
		}
	}
	// Schur complement of the trailing rows. u[t] is row k0+t of U_kj.
	u := make([][]float64, w)
	for t := range u {
		u[t] = lu.Row(k0 + t)[j0:j1]
	}
	i := k0 + w
	for ; i+1 < n; i += 2 {
		r0, r1 := lu.Row(i), lu.Row(i+1)
		l0, l1 := r0[k0:k0+w], r1[k0:k0+w]
		x0, x1 := r0[j0:j1], r1[j0:j1]
		c := 0
		for ; c+4 <= len(x0); c += 4 {
			a0, a1, a2, a3 := x0[c], x0[c+1], x0[c+2], x0[c+3]
			b0, b1, b2, b3 := x1[c], x1[c+1], x1[c+2], x1[c+3]
			for t, ut := range u {
				ut := ut[c : c+4 : c+4]
				if l := l0[t]; l != 0 {
					a0 -= l * ut[0]
					a1 -= l * ut[1]
					a2 -= l * ut[2]
					a3 -= l * ut[3]
				}
				if l := l1[t]; l != 0 {
					b0 -= l * ut[0]
					b1 -= l * ut[1]
					b2 -= l * ut[2]
					b3 -= l * ut[3]
				}
			}
			x0[c], x0[c+1], x0[c+2], x0[c+3] = a0, a1, a2, a3
			x1[c], x1[c+1], x1[c+2], x1[c+3] = b0, b1, b2, b3
		}
		if c < len(x0) {
			schurRow(u, l0, x0, c)
			schurRow(u, l1, x1, c)
		}
	}
	if i < n {
		ri := lu.Row(i)
		schurRow(u, ri[k0:k0+w], ri[j0:j1], 0)
	}
}

// schurRow applies the Schur update to columns [c, len(x)) of one trailing
// row x with multipliers l: x -= Σ_t l[t]·u[t], t ascending.
func schurRow(u [][]float64, l, x []float64, c int) {
	for t, ut := range u {
		lt := l[t]
		if lt == 0 {
			continue
		}
		for k := c; k < len(x); k++ {
			x[k] -= lt * ut[k]
		}
	}
}
