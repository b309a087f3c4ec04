package core

import (
	"math"
	"testing"

	"heteropart/internal/speed"
)

// steepExponential is a speed function whose slope s(x)/x collapses
// exponentially — the adversarial shape for which the paper shows the
// basic algorithm can need O(n) steps while the modified algorithm stays
// at O(p·log₂ n). Its s(x)/x = Peak·e^(−x/Scale)/x is strictly decreasing.
type steepExponential struct {
	Peak, Scale, Max float64
}

func (s steepExponential) Eval(x float64) float64 {
	if x <= 0 {
		return s.Peak
	}
	return s.Peak * math.Exp(-x/s.Scale)
}
func (s steepExponential) MaxSize() float64 { return s.Max }

func TestSteepExponentialShape(t *testing.T) {
	// Max kept at a moderate multiple of Scale so e^(−x/Scale) does not
	// underflow to exactly zero inside the domain.
	f := steepExponential{Peak: 1e6, Scale: 100, Max: 5e3}
	if err := speed.CheckShape(f, 128); err != nil {
		t.Fatalf("CheckShape: %v", err)
	}
}

func TestModifiedHandlesExponentialCurves(t *testing.T) {
	fns := []speed.Function{
		steepExponential{Peak: 1e6, Scale: 300, Max: 1e5},
		steepExponential{Peak: 5e5, Scale: 500, Max: 1e5},
		steepExponential{Peak: 2e6, Scale: 200, Max: 1e5},
	}
	const n = 3000
	res, err := Modified(n, fns)
	if err != nil {
		t.Fatalf("Modified: %v", err)
	}
	if res.Alloc.Sum() != n {
		t.Fatalf("sum = %d", res.Alloc.Sum())
	}
	// p·log₂ n bound from the paper, with slack for the fine-tune region.
	bound := len(fns)*int(math.Log2(n)) + len(fns)
	if res.Stats.Steps > bound {
		t.Errorf("Steps = %d, want ≤ p·log₂n = %d", res.Stats.Steps, bound)
	}
	if spread := timeSpread(res.Alloc, fns); spread > 1.3 {
		t.Errorf("execution time spread %.3f too wide for exponential curves", spread)
	}
}

func TestModifiedStepBoundAcrossShapes(t *testing.T) {
	// The modified algorithm must be insensitive to graph shape: the step
	// count stays within p·log₂ n for smooth, steppy and flat curves.
	shapes := map[string][]speed.Function{
		"analytic": testCluster(4, 17),
		"flat":     constants([]float64{10, 20, 40, 80}, 1e9),
		"exponential": {
			steepExponential{Peak: 1e6, Scale: 1000, Max: 1e6},
			steepExponential{Peak: 3e6, Scale: 700, Max: 1e6},
			steepExponential{Peak: 2e6, Scale: 1500, Max: 1e6},
			steepExponential{Peak: 5e6, Scale: 400, Max: 1e6},
		},
	}
	const n = 100_000
	for name, fns := range shapes {
		res, err := Modified(n, fns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bound := len(fns)*int(math.Log2(n)) + len(fns)
		if res.Stats.Steps > bound {
			t.Errorf("%s: Steps = %d, want ≤ %d", name, res.Stats.Steps, bound)
		}
	}
}

func TestModifiedMatchesBasicOnBenignCurves(t *testing.T) {
	fns := testCluster(5, 23)
	const n = 20_000_000
	a, err := Basic(n, fns)
	if err != nil {
		t.Fatalf("Basic: %v", err)
	}
	m, err := Modified(n, fns)
	if err != nil {
		t.Fatalf("Modified: %v", err)
	}
	ta, tm := Makespan(a.Alloc, fns), Makespan(m.Alloc, fns)
	if math.Abs(ta-tm) > 0.01*ta {
		t.Errorf("makespans diverge: basic %.6g vs modified %.6g", ta, tm)
	}
}

func TestCombinedSelectsModifiedOnSteepCurves(t *testing.T) {
	// Scale ≈ 5 puts the probe intersections at x/Scale ≈ 100 ≫ the default
	// elasticity threshold of 50.
	fns := []speed.Function{
		steepExponential{Peak: 1e6, Scale: 5, Max: 1e5},
		steepExponential{Peak: 2e6, Scale: 6, Max: 1e5},
	}
	res, err := Combined(1000, fns)
	if err != nil {
		t.Fatalf("Combined: %v", err)
	}
	if !res.Stats.UsedModified {
		t.Error("Combined did not switch to the modified algorithm on exponentially steep curves")
	}
	if res.Alloc.Sum() != 1000 {
		t.Errorf("sum = %d", res.Alloc.Sum())
	}
}

func TestCombinedStaysBasicOnGentleCurves(t *testing.T) {
	fns := constants([]float64{100, 300, 250}, 1e9)
	res, err := Combined(1_000_000, fns)
	if err != nil {
		t.Fatalf("Combined: %v", err)
	}
	if res.Stats.UsedModified {
		t.Error("Combined switched to modified on constant curves")
	}
}

func TestCombinedElasticityThresholdOption(t *testing.T) {
	// An absurdly high threshold forces the basic path even on steep curves.
	fns := []speed.Function{
		steepExponential{Peak: 1e6, Scale: 5, Max: 1e5},
		steepExponential{Peak: 2e6, Scale: 6, Max: 1e5},
	}
	res, err := Combined(1000, fns, WithElasticityThreshold(1e18))
	if err != nil {
		t.Fatalf("Combined: %v", err)
	}
	if res.Stats.UsedModified {
		t.Error("threshold override ignored")
	}
	if res.Alloc.Sum() != 1000 {
		t.Errorf("sum = %d", res.Alloc.Sum())
	}
}

func TestIntegerSpan(t *testing.T) {
	cases := []struct{ lo, hi float64 }{
		{1.2, 4.8}, // integers 2,3,4
		{2, 2},     // single integer endpoint
		{2.1, 2.9}, // no integer inside
		{5.5, 5.6},
		{0.1, 2.5}, // integers 1,2
	}
	// Expectations follow the definition: count = ⌊hi⌋−⌈lo⌉+1, clamped at 0,
	// and mid an integer inside [⌈lo⌉, ⌊hi⌋].
	for _, c := range cases {
		wantCount := int64(math.Floor(c.hi) - math.Ceil(c.lo) + 1)
		if wantCount < 0 {
			wantCount = 0
		}
		count, mid := integerSpan(c.lo, c.hi)
		if count != wantCount {
			t.Errorf("integerSpan(%v,%v) count = %d, want %d", c.lo, c.hi, count, wantCount)
		}
		if wantCount > 0 {
			l, h := math.Ceil(c.lo), math.Floor(c.hi)
			if mid < l || mid > h || mid != math.Floor(mid) {
				t.Errorf("integerSpan(%v,%v) mid = %v outside [%v,%v]", c.lo, c.hi, mid, l, h)
			}
		}
	}
}

// originRise is s(x) = c·x/(x+1) with an exact ray intersection, which
// lands on the origin itself for every ray at least as steep as s(x)/x at
// 0+ (slope ≥ c) — as the analytic model's closed form does.
type originRise struct{ c, max float64 }

func (r originRise) Eval(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return r.c * x / (x + 1)
}

func (r originRise) MaxSize() float64 { return r.max }

func (r originRise) IntersectRay(slope float64) (float64, bool) {
	x := math.Max(r.c/slope-1, 0)
	if x > r.max {
		return r.max, false
	}
	return x, true
}

// TestModifiedNeverDrawsRayThroughOrigin: a region whose steep bound
// crosses a graph exactly at x = 0 must not offer abscissa 0 as a
// candidate solution, since no ray passes through the graph point (0, 0).
func TestModifiedNeverDrawsRayThroughOrigin(t *testing.T) {
	for _, c := range []struct {
		n int64
		k float64
	}{{1, 1}, {2, 1}, {10, 100}} {
		fns := []speed.Function{originRise{c: 1, max: 1e6}, speed.MustConstant(c.k, 1e6)}
		res, err := Modified(c.n, fns)
		if err != nil {
			t.Fatalf("Modified(%d) with constant %v: %v", c.n, c.k, err)
		}
		if res.Alloc.Sum() != c.n {
			t.Errorf("Modified(%d) with constant %v: sum = %d", c.n, c.k, res.Alloc.Sum())
		}
	}
}
