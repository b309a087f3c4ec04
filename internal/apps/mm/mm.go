// Package mm implements the paper's first application: parallel
// multiplication C = A×Bᵀ of dense n×n matrices with horizontal striped
// partitioning (Figure 16). The matrices A, B and C are partitioned into
// horizontal slices so that the total number of elements per slice is
// proportional to the speed of the owning processor — under the functional
// model, proportional to the speed at that slice's size.
package mm

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"heteropart/internal/core"
	"heteropart/internal/grid"
	"heteropart/internal/kernels"
	"heteropart/internal/matrix"
	"heteropart/internal/pool"
	"heteropart/internal/sim"
	"heteropart/internal/speed"
)

// Plan is a striped distribution of an n×n multiplication.
type Plan struct {
	// N is the matrix size.
	N int
	// Rows[i] is the number of matrix rows assigned to processor i.
	Rows core.Allocation
	// Stats reports the partitioning effort (functional model only).
	Stats core.Stats
}

// RowFunctions converts per-machine flop-rate functions (flops/second as a
// function of working-set elements) into row-speed functions for a fixed
// n: processor i holding r rows of A, B and C stores x = 3·r·n elements
// and performs 2·r·n² flops, so its speed in rows/second is
// F_i(3·r·n)/(2·n²). Partitioning the n rows proportionally to these
// functions equalizes execution times, and their makespan is in seconds.
func RowFunctions(n int, flopRates []speed.Function) ([]speed.Function, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mm: invalid matrix size %d", n)
	}
	out := make([]speed.Function, len(flopRates))
	for i, f := range flopRates {
		if f == nil {
			return nil, fmt.Errorf("mm: nil speed function for processor %d", i)
		}
		scaled, err := speed.NewScale(f, 3*float64(n))
		if err != nil {
			return nil, err
		}
		rowFn, err := speed.ScaleSpeed(scaled, 1/(2*float64(n)*float64(n)))
		if err != nil {
			return nil, err
		}
		out[i] = rowFn
	}
	return out, nil
}

// PartitionFPM distributes the rows using the functional performance
// model and the combined set-partitioning algorithm.
func PartitionFPM(n int, flopRates []speed.Function, opts ...core.Option) (Plan, error) {
	rowFns, err := RowFunctions(n, flopRates)
	if err != nil {
		return Plan{}, err
	}
	res, err := core.Combined(int64(n), rowFns, opts...)
	if err != nil {
		return Plan{}, fmt.Errorf("mm: partitioning %d rows: %w", n, err)
	}
	return Plan{N: n, Rows: res.Alloc, Stats: res.Stats}, nil
}

// PartitionSingleNumber distributes the rows using the single-number
// model: each processor's speed is its flop rate measured once, at the
// multiplication of two dense refN×refN matrices (working set 3·refN²
// elements), exactly as the Figure 22(a) baselines with refN = 500 and
// refN = 4000.
func PartitionSingleNumber(n, refN int, flopRates []speed.Function) (Plan, error) {
	if n <= 0 || refN <= 0 {
		return Plan{}, fmt.Errorf("mm: invalid sizes n=%d refN=%d", n, refN)
	}
	speeds := make([]float64, len(flopRates))
	for i, f := range flopRates {
		if f == nil {
			return Plan{}, fmt.Errorf("mm: nil speed function for processor %d", i)
		}
		speeds[i] = f.Eval(3 * float64(refN) * float64(refN))
	}
	alloc, err := core.SingleNumber(int64(n), speeds)
	if err != nil {
		return Plan{}, fmt.Errorf("mm: single-number partitioning: %w", err)
	}
	return Plan{N: n, Rows: alloc, Stats: core.Stats{Algorithm: "single-number"}}, nil
}

// SimTime returns the modelled parallel execution time of the plan in
// seconds under the true flop-rate functions: processor i spends
// 2·r_i·n² / F_i(3·r_i·n).
func SimTime(p Plan, flopRates []speed.Function) (float64, error) {
	if len(p.Rows) != len(flopRates) {
		return 0, fmt.Errorf("mm: plan for %d processors, %d functions", len(p.Rows), len(flopRates))
	}
	n := float64(p.N)
	tasks := make([]sim.Task, len(p.Rows))
	for i, r := range p.Rows {
		tasks[i] = sim.Task{
			Work: 2 * float64(r) * n * n,
			Size: 3 * float64(r) * n,
		}
	}
	total, _, err := sim.Makespan(tasks, flopRates)
	return total, err
}

// Execute really multiplies C = A×Bᵀ in parallel on the host over the
// shared worker pool and returns C with the per-stripe wall times. It
// verifies shapes but not load balance: the point is to exercise the
// distribution end to end.
func Execute(p Plan, a, b *matrix.Dense) (*matrix.Dense, []float64, error) {
	return ExecuteWith(nil, p, a, b)
}

// ExecuteWith is Execute running the stripe workers on the given pool
// (nil selects pool.Shared()): one pool item per non-empty stripe, so
// concurrency is bounded by the pool width instead of the stripe count.
func ExecuteWith(pl *pool.Pool, p Plan, a, b *matrix.Dense) (*matrix.Dense, []float64, error) {
	if a.Rows != p.N || a.Cols != p.N || b.Rows != p.N || b.Cols != p.N {
		return nil, nil, fmt.Errorf("mm: plan is %d×%d, matrices %d×%d and %d×%d",
			p.N, p.N, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	stripes, err := matrix.Stripes(p.Rows, p.N)
	if err != nil {
		return nil, nil, fmt.Errorf("mm: %w", err)
	}
	c, err := matrix.New(p.N, p.N)
	if err != nil {
		return nil, nil, err
	}
	if pl == nil {
		pl = pool.Shared()
	}
	times := make([]float64, len(stripes))
	errs := make([]error, len(stripes))
	// Hand the stripes to the pool largest first, so the small stripes
	// fill in around the large ones instead of leaving one pool worker
	// finishing a large stripe claimed last.
	order := make([]int, len(stripes))
	for w := range order {
		order[w] = w
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(p.Rows[y], p.Rows[x]) })
	pl.Run(len(order), func(i int) {
		w := order[i]
		lo, hi := stripes[w][0], stripes[w][1]
		if lo == hi {
			return
		}
		aStripe, err := a.RowStripe(lo, hi)
		if err != nil {
			errs[w] = err
			return
		}
		cStripe, err := c.RowStripe(lo, hi)
		if err != nil {
			errs[w] = err
			return
		}
		start := time.Now()
		errs[w] = kernels.MatMulABT(cStripe, aStripe, b)
		times[w] = time.Since(start).Seconds()
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("mm: worker failed: %w", err)
		}
	}
	return c, times, nil
}

// Workers returns a sensible worker cap for Execute-style runs.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Execute2D really multiplies C = A×Bᵀ in parallel with a rectangular
// (grid) distribution: the worker owning rectangle [x0,x1)×[y0,y1)
// computes the C block with rows y0..y1 and columns x0..x1, reading the
// corresponding row stripes of A and B. It exercises the §3.1
// two-dimensional extension end to end (see internal/grid) and verifies
// shapes; C cells outside every rectangle stay zero, so an exact tiling
// yields the complete product.
func Execute2D(n int, rects []grid.Rect, a, b *matrix.Dense) (*matrix.Dense, []float64, error) {
	return Execute2DWith(nil, n, rects, a, b)
}

// Execute2DWith is Execute2D running the rectangle workers on the given
// pool (nil selects pool.Shared()).
func Execute2DWith(pl *pool.Pool, n int, rects []grid.Rect, a, b *matrix.Dense) (*matrix.Dense, []float64, error) {
	if a.Rows != n || a.Cols != n || b.Rows != n || b.Cols != n {
		return nil, nil, fmt.Errorf("mm: grid is %d×%d, matrices %d×%d and %d×%d",
			n, n, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c, err := matrix.New(n, n)
	if err != nil {
		return nil, nil, err
	}
	for w, r := range rects {
		if r.Empty() {
			continue
		}
		if r.X0 < 0 || r.Y0 < 0 || r.X1 > n || r.Y1 > n {
			return nil, nil, fmt.Errorf("mm: rectangle %d (%v) outside the %d×%d grid", w, r, n, n)
		}
	}
	if pl == nil {
		pl = pool.Shared()
	}
	times := make([]float64, len(rects))
	pl.Run(len(rects), func(w int) {
		r := rects[w]
		if r.Empty() {
			return
		}
		start := time.Now()
		// C[i][j] = Σ_k A[i][k]·B[j][k] for i ∈ [Y0,Y1), j ∈ [X0,X1).
		// Rectangles tile the grid, so writes to C are disjoint.
		for i := r.Y0; i < r.Y1; i++ {
			arow := a.Row(i)
			crow := c.Row(i)
			for j := r.X0; j < r.X1; j++ {
				brow := b.Row(j)
				var s float64
				for k := range arow {
					s += arow[k] * brow[k]
				}
				crow[j] = s
			}
		}
		times[w] = time.Since(start).Seconds()
	})
	return c, times, nil
}
