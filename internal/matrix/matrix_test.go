package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m, err := New(3, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Errorf("Row(1)[2] = %v, want 7.5", got)
	}
}

func TestNewRejectsNegative(t *testing.T) {
	if _, err := New(-1, 2); err == nil {
		t.Error("New(-1, 2): want error")
	}
	if _, err := New(2, -1); err == nil {
		t.Error("New(2, -1): want error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(-1, 1) did not panic")
		}
	}()
	MustNew(-1, 1)
}

func TestRowStripeSharesStorage(t *testing.T) {
	m := MustNew(5, 3)
	m.FillRandom(1)
	s, err := m.RowStripe(1, 4)
	if err != nil {
		t.Fatalf("RowStripe: %v", err)
	}
	if s.Rows != 3 || s.Cols != 3 {
		t.Fatalf("stripe shape %d×%d", s.Rows, s.Cols)
	}
	s.Set(0, 0, 42)
	if m.At(1, 0) != 42 {
		t.Error("stripe does not alias parent storage")
	}
}

func TestRowStripeBounds(t *testing.T) {
	m := MustNew(5, 3)
	for _, c := range [][2]int{{-1, 2}, {3, 2}, {0, 6}} {
		if _, err := m.RowStripe(c[0], c[1]); err == nil {
			t.Errorf("RowStripe(%d, %d): want error", c[0], c[1])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := MustNew(2, 2)
	m.FillRandom(9)
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Error("Clone shares storage")
	}
	if !Equalish(m, m.Clone(), 0) {
		t.Error("Clone not equal to original")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a, b := MustNew(4, 4), MustNew(4, 4)
	a.FillRandom(5)
	b.FillRandom(5)
	if !Equalish(a, b, 0) {
		t.Error("same seed differs")
	}
	b.FillRandom(6)
	if Equalish(a, b, 0) {
		t.Error("different seeds identical")
	}
}

func TestFillIdentity(t *testing.T) {
	m := MustNew(3, 3)
	m.FillRandom(2)
	if err := m.FillIdentity(); err != nil {
		t.Fatalf("FillIdentity: %v", err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
	if err := MustNew(2, 3).FillIdentity(); err == nil {
		t.Error("identity of non-square: want error")
	}
}

func TestEqualishAndMaxAbsDiff(t *testing.T) {
	a, b := MustNew(2, 2), MustNew(2, 2)
	a.Set(0, 0, 1)
	b.Set(0, 0, 1.05)
	if !Equalish(a, b, 0.1) {
		t.Error("Equalish(0.1) = false")
	}
	if Equalish(a, b, 0.01) {
		t.Error("Equalish(0.01) = true")
	}
	if got := MaxAbsDiff(a, b); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("MaxAbsDiff = %v, want 0.05", got)
	}
	if Equalish(a, MustNew(2, 3), 1) {
		t.Error("Equalish across shapes = true")
	}
	if !math.IsInf(MaxAbsDiff(a, MustNew(3, 2)), 1) {
		t.Error("MaxAbsDiff across shapes must be +Inf")
	}
}

func TestStripes(t *testing.T) {
	s, err := Stripes([]int64{2, 0, 3}, 5)
	if err != nil {
		t.Fatalf("Stripes: %v", err)
	}
	want := [][2]int{{0, 2}, {2, 2}, {2, 5}}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("stripes = %v, want %v", s, want)
		}
	}
}

func TestStripesErrors(t *testing.T) {
	if _, err := Stripes([]int64{2, 2}, 5); err == nil {
		t.Error("sum mismatch: want error")
	}
	if _, err := Stripes([]int64{-1, 6}, 5); err == nil {
		t.Error("negative count: want error")
	}
}

// Property: stripes tile [0, total) exactly, in order, with no gaps.
func TestStripesProperty(t *testing.T) {
	check := func(sizes []uint8) bool {
		counts := make([]int64, len(sizes))
		var total int64
		for i, s := range sizes {
			counts[i] = int64(s)
			total += int64(s)
		}
		st, err := Stripes(counts, int(total))
		if err != nil {
			return false
		}
		at := 0
		for i, s := range st {
			if s[0] != at || s[1]-s[0] != int(counts[i]) {
				return false
			}
			at = s[1]
		}
		return at == int(total)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsDiffNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		a, b float64
		want float64
	}{
		{"NaN against a number", nan, 1, inf},
		{"number against NaN", 1, nan, inf},
		{"NaN against Inf", nan, inf, inf},
		{"Inf against Inf", inf, inf, 0},
		{"-Inf against -Inf", -inf, -inf, 0},
		{"Inf against -Inf", inf, -inf, inf},
		{"Inf against a number", inf, 1, inf},
		{"+0 against -0", 0, math.Copysign(0, -1), 0},
		{"identical NaN", nan, nan, 0},
	}
	for _, c := range cases {
		a, b := MustNew(1, 3), MustNew(1, 3)
		// The differing position sits between two positions that differ
		// by 0.5, so a NaN must not be lost to an earlier or later maximum.
		copy(a.Data, []float64{0.5, c.a, 0})
		copy(b.Data, []float64{0, c.b, 0.5})
		want := max(c.want, 0.5)
		if got := MaxAbsDiff(a, b); got != want {
			t.Errorf("%s: MaxAbsDiff = %v, want %v", c.name, got, want)
		}
		if got, wantEq := Equalish(a, b, 1), want <= 1; got != wantEq {
			t.Errorf("%s: Equalish(tol 1) = %v, want %v", c.name, got, wantEq)
		}
	}
}
