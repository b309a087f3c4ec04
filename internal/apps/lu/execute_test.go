package lu

import (
	"math"
	"math/rand/v2"
	"testing"

	"heteropart/internal/kernels"
	"heteropart/internal/matrix"
	"heteropart/internal/pool"
	"heteropart/internal/speed"
)

func wellConditioned(n int, seed uint64) *matrix.Dense {
	a := matrix.MustNew(n, n)
	a.FillRandom(seed)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestExecuteMatchesUnblocked(t *testing.T) {
	small := []speed.Function{
		speed.MustConstant(300, 1e9),
		speed.MustConstant(200, 1e9),
		speed.MustConstant(100, 1e9),
	}
	cases := []struct {
		n, b int
		fns  []speed.Function
	}{
		{32, 16, small},
		{96, 16, small},
		{100, 16, small}, // a partial last block
		{1024, 32, table2LURates(t)},
	}
	for _, c := range cases {
		n := c.n
		d, err := VariableGroupBlock(n, c.b, c.fns)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		a := wellConditioned(n, uint64(n))
		lu, perm, times, err := Execute(d, a, len(c.fns))
		if err != nil {
			t.Fatalf("n=%d: Execute: %v", n, err)
		}
		if len(times) != len(c.fns) {
			t.Errorf("n=%d: %d worker times", n, len(times))
		}
		// The blocked parallel factors must equal the serial unblocked
		// kernel's bit for bit: same pivot sequence, and every element
		// receives the same updates in the same order.
		ref := a.Clone()
		refPerm, err := kernels.LUFactorize(ref)
		if err != nil {
			t.Fatal(err)
		}
		for i := range perm {
			if perm[i] != refPerm[i] {
				t.Fatalf("n=%d: pivot sequences differ at %d: %v vs %v",
					n, i, perm[:i+1], refPerm[:i+1])
			}
		}
		for i, v := range lu.Data {
			if math.Float64bits(v) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("n=%d: factor (%d, %d) = %v, unblocked %v", n, i/n, i%n, v, ref.Data[i])
			}
		}
		// And reconstruct the original matrix.
		back, err := kernels.LUReconstruct(lu, perm)
		if err != nil {
			t.Fatal(err)
		}
		if diff := matrix.MaxAbsDiff(back, a); diff > 1e-8*float64(n) {
			t.Errorf("n=%d: reconstruction error %v", n, diff)
		}
	}
}

// updateBlockRef is the one-row-at-a-time step-k update, the reference
// updateBlock must match bit for bit.
func updateBlockRef(lu *matrix.Dense, k0, w, j0, j1 int) {
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
	// Schur complement of the trailing rows.
	for i := k0 + w; i < n; i++ {
		ri := lu.Row(i)
		for t := k0; t < k0+w; t++ {
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
}

func TestUpdateBlockMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	shapes := []struct{ n, k0, w, j0, j1 int }{
		{40, 0, 8, 8, 16},   // even trailing rows, two 4-column groups
		{41, 8, 8, 16, 29},  // odd trailing rows, a 1-column remainder
		{37, 4, 7, 11, 14},  // narrower than one column group
		{30, 10, 1, 11, 30}, // a one-column panel
		{33, 0, 16, 16, 33}, // 17 trailing rows, 17 columns
		{20, 12, 8, 20, 20}, // no trailing rows, empty block
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(sh.n)))
			a := matrix.MustNew(sh.n, sh.n)
			for i := range a.Data {
				a.Data[i] = 2*rng.Float64() - 1
				// Exact-zero and −0.0 multipliers, −0.0 trailing
				// elements and infinite U entries: the values on
				// which skipping a zero multiplier changes the result
				// (−0 − (+0·−x) is +0, and 0·Inf is NaN).
				switch rng.IntN(6) {
				case 0:
					a.Data[i] = negZero
				case 1:
					a.Data[i] = 0
				case 2:
					if rng.IntN(4) == 0 {
						a.Data[i] = math.Inf(1 - 2*rng.IntN(2))
					}
				}
			}
			want := a.Clone()
			updateBlockRef(want, sh.k0, sh.w, sh.j0, sh.j1)
			updateBlock(a, sh.k0, sh.w, sh.j0, sh.j1)
			for i, v := range a.Data {
				if w := want.Data[i]; math.Float64bits(v) != math.Float64bits(w) &&
					!(math.IsNaN(v) && math.IsNaN(w)) {
					t.Fatalf("%+v seed %d: (%d, %d) = %v (%#x), reference %v (%#x)",
						sh, seed, i/sh.n, i%sh.n, v, math.Float64bits(v), w, math.Float64bits(w))
				}
			}
		}
	}
}

func TestExecuteSingularMatrix(t *testing.T) {
	fns := []speed.Function{speed.MustConstant(1, 1e9)}
	d, err := VariableGroupBlock(8, 4, fns)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Execute(d, matrix.MustNew(8, 8), 1); err == nil {
		t.Error("all-zero matrix: want error")
	}
}

func TestExecuteValidation(t *testing.T) {
	fns := []speed.Function{speed.MustConstant(1, 1e9)}
	d, err := VariableGroupBlock(8, 4, fns)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Execute(d, matrix.MustNew(4, 8), 1); err == nil {
		t.Error("shape mismatch: want error")
	}
	if _, _, _, err := Execute(d, wellConditioned(8, 1), 0); err == nil {
		t.Error("p=0: want error")
	}
	bad := d
	bad.Owners = []int{0, 7}
	if _, _, _, err := Execute(bad, wellConditioned(8, 1), 1); err == nil {
		t.Error("owner out of range: want error")
	}
}

func TestExecuteDistributesWork(t *testing.T) {
	// With a 4:1 speed ratio the fast processor owns more blocks; its
	// accumulated wall time must not be an order of magnitude below its
	// share (coarse sanity that the parallel path really ran).
	fns := []speed.Function{
		speed.MustConstant(400, 1e9),
		speed.MustConstant(100, 1e9),
	}
	d, err := VariableGroupBlock(128, 16, fns)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int, 2)
	for _, o := range d.Owners {
		owned[o]++
	}
	if owned[0] <= owned[1] {
		t.Fatalf("fast processor owns %d of %d blocks", owned[0], d.Blocks())
	}
	_, _, times, err := Execute(d, wellConditioned(128, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if times[0] <= 0 {
		t.Error("fast processor recorded no time")
	}
}

func TestSimTimeDetailedAgreesWithSimTime(t *testing.T) {
	fns := []speed.Function{
		speed.MustConstant(1e9, 1e12),
		speed.MustConstant(2e9, 1e12),
	}
	d, err := VariableGroupBlock(512, 32, fns)
	if err != nil {
		t.Fatal(err)
	}
	total, err := SimTime(d, fns)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := SimTimeDetailed(d, fns)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != d.Blocks() {
		t.Fatalf("%d steps for %d blocks", len(steps), d.Blocks())
	}
	var sum float64
	for _, s := range steps {
		if s.Panel < 0 || s.Update < 0 {
			t.Fatalf("negative step time %+v", s)
		}
		sum += s.Panel + s.Update
	}
	if math.Abs(sum-total) > 1e-9*total {
		t.Errorf("detailed sum %v vs SimTime %v", sum, total)
	}
}

func TestExecuteWithBoundedPool(t *testing.T) {
	fns := []speed.Function{
		speed.MustConstant(300, 1e9),
		speed.MustConstant(200, 1e9),
		speed.MustConstant(100, 1e9),
	}
	const n = 96
	d, err := VariableGroupBlock(n, 16, fns)
	if err != nil {
		t.Fatal(err)
	}
	a := wellConditioned(n, 11)
	luRef, permRef, _, err := Execute(d, a, len(fns))
	if err != nil {
		t.Fatal(err)
	}
	// A one-wide pool serializes the trailing updates through the same
	// code path; factors and permutation must be bit-identical.
	luGot, permGot, times, err := ExecuteWith(pool.Sized(1), d, a, len(fns))
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(fns) {
		t.Errorf("%d times for %d processors", len(times), len(fns))
	}
	for i := range permRef {
		if permGot[i] != permRef[i] {
			t.Fatalf("perm[%d] differs", i)
		}
	}
	if d := matrix.MaxAbsDiff(luGot, luRef); d != 0 {
		t.Errorf("factors deviate by %v", d)
	}
}
