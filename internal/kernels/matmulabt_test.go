package kernels

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"heteropart/internal/matrix"
)

// matMulABTRef is the plain one-dot-per-element c = a×bᵀ loop, the
// reference MatMulABT must match bit for bit.
func matMulABTRef(c, a, b *matrix.Dense) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k := range arow {
				s += arow[k] * brow[k]
			}
			crow[j] = s
		}
	}
}

// sameFloat reports whether x and y have identical bits. Any two NaNs
// count as the same: Go leaves NaN payloads unspecified, and the compiler
// may order a commutative operation's operands either way.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// specialMatrix is a seeded r×c matrix of values in [-1, 1) where about
// one element in eight is replaced by −0.0, +0, +Inf, −Inf or NaN when
// specials is set.
func specialMatrix(r, c int, seed uint64, specials bool) *matrix.Dense {
	m := matrix.MustNew(r, c)
	rng := rand.New(rand.NewPCG(seed, 0x6d61746d756c))
	pick := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
		if specials && rng.IntN(8) == 0 {
			m.Data[i] = pick[rng.IntN(len(pick))]
		}
	}
	return m
}

// checkMatMulABT runs MatMulABT on an (aRows×k)·(bRows×k)ᵀ product and
// compares every element with the reference loop.
func checkMatMulABT(t *testing.T, aRows, bRows, k int, seed uint64, specials bool) {
	t.Helper()
	a := specialMatrix(aRows, k, seed, specials)
	b := specialMatrix(bRows, k, seed+1, specials)
	want := matrix.MustNew(aRows, bRows)
	matMulABTRef(want, a, b)
	got := matrix.MustNew(aRows, bRows)
	// Pre-fill the output so an element the kernel skips shows up.
	for i := range got.Data {
		got.Data[i] = 42
	}
	if err := MatMulABT(got, a, b); err != nil {
		t.Fatalf("(%d×%d)·(%d×%d)ᵀ: %v", aRows, k, bRows, k, err)
	}
	for i, v := range got.Data {
		if !sameFloat(v, want.Data[i]) {
			t.Fatalf("(%d×%d)·(%d×%d)ᵀ seed %d: c[%d][%d] = %v (%#x), reference %v (%#x)",
				aRows, k, bRows, k, seed, i/bRows, i%bRows,
				v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

func TestMatMulABTMatchesReference(t *testing.T) {
	shapes := []struct{ aRows, bRows, k int }{
		{1, 1, 1},
		{2, 2, 5},
		{3, 5, 7}, // odd a rows and odd b rows
		{5, 3, 8},
		{4, 64, 16},   // b rows exactly one tile
		{6, 65, 9},    // one row past the tile
		{7, 129, 33},  // odd everywhere, two full tiles and a remainder
		{33, 200, 64}, // b rows not a multiple of the tile
		{4, 130, 0},   // k = 0: every element is an empty sum
		{0, 5, 3},     // no a rows
		{3, 0, 3},     // no b rows
		{0, 0, 0},
		{64, 64, 100},
	}
	for _, sh := range shapes {
		for _, specials := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%dx%d/specials=%v", sh.aRows, sh.bRows, sh.k, specials), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					checkMatMulABT(t, sh.aRows, sh.bRows, sh.k, 10*seed, specials)
				}
			})
		}
	}
}

func FuzzMatMulABT(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(7), uint64(1), false)
	f.Add(uint8(64), uint8(65), uint8(4), uint64(2), true)
	f.Add(uint8(1), uint8(130), uint8(0), uint64(3), true)
	f.Fuzz(func(t *testing.T, aRows, bRows, k uint8, seed uint64, specials bool) {
		// Up to 80 a rows and 160 b rows: both parities, and up to two
		// full b tiles plus a remainder.
		checkMatMulABT(t, int(aRows%81), int(bRows%161), int(k%97), seed, specials)
	})
}
