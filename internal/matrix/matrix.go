// Package matrix provides the dense row-major matrix type and the striped
// partitioning helpers used by the paper's two applications: matrix
// multiplication C = A×Bᵀ with horizontal striped partitioning and LU
// factorization with block-column distributions.
package matrix

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Dense is a dense row-major matrix of float64.
type Dense struct {
	Rows, Cols int
	// Data holds Rows×Cols values, row i at Data[i*Cols : (i+1)*Cols].
	Data []float64
}

// New allocates a zeroed r×c matrix.
func New(r, c int) (*Dense, error) {
	if r < 0 || c < 0 {
		return nil, errDims(r, c)
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}, nil
}

func errDims(r, c int) error {
	return fmt.Errorf("matrix: invalid dimensions %d×%d", r, c)
}

func errShapeCopy(dst, src *Dense) error {
	return fmt.Errorf("matrix: copy %d×%d into %d×%d", src.Rows, src.Cols, dst.Rows, dst.Cols)
}

// MustNew is like New but panics on invalid dimensions.
func MustNew(r, c int) *Dense {
	m, err := New(r, c)
	if err != nil {
		panic(err)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowStripe returns rows [i0, i1) as a view sharing storage with m.
func (m *Dense) RowStripe(i0, i1 int) (*Dense, error) {
	if i0 < 0 || i1 < i0 || i1 > m.Rows {
		return nil, fmt.Errorf("matrix: stripe [%d, %d) of %d rows", i0, i1, m.Rows)
	}
	return &Dense{
		Rows: i1 - i0,
		Cols: m.Cols,
		Data: m.Data[i0*m.Cols : i1*m.Cols],
	}, nil
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.Data))
	copy(d, m.Data)
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// FillRandom fills the matrix with deterministic uniform values in [0, 1).
func (m *Dense) FillRandom(seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xda3e39cb94b95bdb))
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
}

// FillIdentity sets the matrix to the identity (square matrices only).
func (m *Dense) FillIdentity() error {
	if m.Rows != m.Cols {
		return fmt.Errorf("matrix: identity needs a square matrix, have %d×%d", m.Rows, m.Cols)
	}
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 1)
	}
	return nil
}

// Equalish reports whether two matrices agree elementwise within tol. A
// NaN disagrees with everything but a NaN of identical bits.
func Equalish(a, b *Dense, tol float64) bool {
	return MaxAbsDiff(a, b) <= tol
}

// MaxAbsDiff returns the largest elementwise absolute difference, or +Inf
// on shape mismatch. Positions holding identical bits (equal infinities
// included) count as 0; a NaN anywhere else counts as +Inf, so a NaN
// result can never pass a d > tol check.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var worst float64
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(v) == math.Float64bits(w) {
			continue
		}
		d := math.Abs(v - w)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		worst = max(worst, d)
	}
	return worst
}

// Stripes converts a row-count allocation into consecutive [start, end)
// stripe boundaries. The allocation entries must be non-negative and sum
// to the matrix row count.
func Stripes(rowCounts []int64, totalRows int) ([][2]int, error) {
	var sum int64
	for i, r := range rowCounts {
		if r < 0 {
			return nil, fmt.Errorf("matrix: negative stripe size %d at %d", r, i)
		}
		sum += r
	}
	if sum != int64(totalRows) {
		return nil, fmt.Errorf("matrix: stripes sum to %d, want %d rows", sum, totalRows)
	}
	out := make([][2]int, len(rowCounts))
	at := 0
	for i, r := range rowCounts {
		out[i] = [2]int{at, at + int(r)}
		at += int(r)
	}
	return out, nil
}
