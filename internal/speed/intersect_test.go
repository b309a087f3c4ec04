package speed_test

import (
	"math"
	"testing"

	"heteropart/internal/geometry"
	"heteropart/internal/machine"
	"heteropart/internal/speed"
)

// evalOnly hides every method but Eval, so geometry.Intersect bisects the
// curve: the reference the analytic intersections are checked against.
type evalOnly struct{ f speed.Function }

func (e evalOnly) Eval(x float64) float64 { return e.f.Eval(x) }

// rayFunction is a speed function with the analytic fast path.
type rayFunction interface {
	speed.Function
	geometry.RayIntersector
}

// checkAgainstBisection compares f.IntersectRay(m) with bisection on the
// Eval-only view of f: the abscissas agree to 1e-10·max(1, x) and the hit
// flags agree. The flag may differ only for a ray through the graph's
// last point, where rounding decides between a crossing at Max and none.
func checkAgainstBisection(t *testing.T, name string, f rayFunction, m float64) float64 {
	t.Helper()
	maxX := f.MaxSize()
	want, err := geometry.Intersect(evalOnly{f}, geometry.MustRay(m), maxX)
	if err != nil {
		t.Fatalf("%s: reference intersection at slope %v: %v", name, m, err)
	}
	got, hit := f.IntersectRay(m)
	if math.IsNaN(got) || got < 0 || got > maxX {
		t.Fatalf("%s: IntersectRay(%v) = %v outside [0, %v]", name, m, got, maxX)
	}
	if d := math.Abs(got - want); d > 1e-10*math.Max(1, want) {
		t.Errorf("%s: IntersectRay(%v) = %v, bisection %v (|Δx| = %.3g)", name, m, got, want, d)
	}
	endY := f.Eval(maxX)
	wantHit := endY-m*maxX < 0
	if hit != wantHit && math.Abs(endY-m*maxX) > 1e-12*endY {
		t.Errorf("%s: IntersectRay(%v) hit = %v, want %v", name, m, hit, wantHit)
	}
	return got
}

// joints returns the abscissas where an Analytic model's regions meet
// inside its domain, and its domain end.
func joints(a *speed.Analytic) []float64 {
	var js []float64
	for _, j := range []float64{a.CacheEdge, a.PagingPoint, a.Max} {
		if j > 0 && j <= a.Max {
			js = append(js, j)
		}
	}
	return js
}

// checkModel sweeps f with log-spaced slopes from below its ratio at the
// domain end to above its ratio at the origin, then brackets every joint
// ratio s(j)/j with its float neighbours and checks that the abscissa
// does not increase with the slope across it.
func checkModel(t *testing.T, name string, f rayFunction, js []float64) {
	t.Helper()
	maxX := f.MaxSize()
	lo := 0.5 * f.Eval(maxX) / maxX
	hi := 2 * f.Eval(maxX*1e-12) / (maxX * 1e-12)
	const steps = 200
	for i := 0; i <= steps; i++ {
		m := lo * math.Pow(hi/lo, float64(i)/steps)
		checkAgainstBisection(t, name, f, m)
	}
	for _, j := range js {
		r := f.Eval(j) / j
		prev := math.Inf(1)
		for _, m := range []float64{math.Nextafter(r, 0), r, math.Nextafter(r, math.Inf(1))} {
			x := checkAgainstBisection(t, name, f, m)
			if x > prev {
				t.Errorf("%s: abscissa rises from %v to %v as the slope grows to %v across joint %v",
					name, prev, x, m, j)
			}
			prev = x
		}
	}
}

// TestAnalyticIntersectRayTable2 checks the closed-form intersection on
// every Table 2 machine × kernel, bare and behind the speed (ScaleSpeed)
// and abscissa (Scale) wrappers that the applications put around it.
func TestAnalyticIntersectRayTable2(t *testing.T) {
	for _, m := range machine.Table2() {
		for _, k := range machine.Kernels() {
			a, err := m.FlopRate(k)
			if err != nil {
				t.Fatal(err)
			}
			name := m.Name + "/" + k.Name
			js := joints(a)
			checkModel(t, name, a, js)

			scaled, err := speed.ScaleSpeed(a, 1/k.FlopsPerElement(1000))
			if err != nil {
				t.Fatal(err)
			}
			sf, ok := scaled.(rayFunction)
			if !ok {
				t.Fatalf("%s: ScaleSpeed lost the analytic fast path", name)
			}
			checkModel(t, name+"/ScaleSpeed", sf, js)

			rows, err := speed.NewScale(scaled, 3000)
			if err != nil {
				t.Fatal(err)
			}
			rowJs := make([]float64, len(js))
			for i, j := range js {
				rowJs[i] = j / 3000
			}
			checkModel(t, name+"/Scale", rows, rowJs)
		}
	}
}

// analyticFrom maps nine arbitrary floats onto a valid Analytic model and
// a slope between half its ratio at Max and twice its ratio at the
// origin. The selectors disable the cache term (CacheEdge = 0) or the
// paging term (PagingPoint = 0) a quarter of the time each, and Max may
// end inside any region.
func analyticFrom(peak, rise, edge, decay, paging, width, floor, max, slope float64) (*speed.Analytic, float64, bool) {
	u := func(v float64) float64 {
		v = math.Abs(v)
		return v - math.Floor(v)
	}
	for _, v := range []float64{peak, rise, edge, decay, paging, width, floor, max, slope} {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e15 {
			return nil, 0, false
		}
	}
	a := &speed.Analytic{
		Peak:     math.Pow(10, 3+7*u(peak)),
		HalfRise: math.Pow(10, 5*u(rise)),
	}
	base := a.HalfRise
	if ue := u(edge); ue >= 0.25 {
		a.CacheEdge = a.HalfRise * math.Pow(10, 4*ue)
		a.CacheDecay = 0.01 + 0.99*u(decay)
		base = a.CacheEdge
	}
	if up := u(paging); up >= 0.25 {
		a.PagingPoint = base * (1 + math.Pow(10, 3*up))
		a.PagingWidth = a.PagingPoint * math.Pow(10, -3+3*u(width))
		a.PagingFloor = 0.99 * u(floor)
		base = a.PagingPoint
	}
	a.Max = base * math.Pow(10, -1+3*u(max))
	if a.Validate() != nil {
		return nil, 0, false
	}
	lo := 0.5 * a.Eval(a.Max) / a.Max
	hi := 2 * a.Peak / a.HalfRise
	return a, lo * math.Pow(hi/lo, u(slope)), true
}

// FuzzAnalyticIntersectRay checks the closed-form ray intersection of
// fuzzed Analytic models, bare and behind ScaleSpeed, against bisection,
// and that the abscissa does not increase with the slope across the
// region joints.
func FuzzAnalyticIntersectRay(f *testing.F) {
	f.Add(0.5, 0.6, 0.5, 0.3, 0.7, 0.5, 0.1, 0.5, 0.5)      // all regions
	f.Add(0.5, 0.6, 0.1, 0.3, 0.7, 0.5, 0.1, 0.9, 0.2)      // CacheEdge = 0
	f.Add(0.5, 0.6, 0.5, 0.3, 0.1, 0.5, 0.1, 0.9, 0.3)      // PagingPoint = 0
	f.Add(0.5, 0.6, 0.1, 0.3, 0.1, 0.5, 0.1, 0.9, 0.7)      // rise only
	f.Add(0.9, 0.99, 0.9, 0.99, 0.9, 0.01, 0.99, 0.2, 0.01) // Max before the paging point
	f.Add(0.2, 0.0, 0.3, 0.0, 0.3, 0.9, 0.0, 0.99, 0.99)    // steep ray near the origin
	f.Fuzz(func(t *testing.T, peak, rise, edge, decay, paging, width, floor, max, slope float64) {
		a, m, ok := analyticFrom(peak, rise, edge, decay, paging, width, floor, max, slope)
		if !ok {
			t.Skip()
		}
		checkAgainstBisection(t, a.String(), a, m)
		scaled, err := speed.ScaleSpeed(a, 0.37)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBisection(t, a.String()+"/ScaleSpeed", scaled.(rayFunction), m*0.37)
		for _, j := range joints(a) {
			r := a.Eval(j) / j
			below, _ := a.IntersectRay(math.Nextafter(r, 0))
			at, _ := a.IntersectRay(r)
			above, _ := a.IntersectRay(math.Nextafter(r, math.Inf(1)))
			if !(above <= at && at <= below) {
				t.Fatalf("%v: abscissas %v, %v, %v not non-increasing across joint %v", a, below, at, above, j)
			}
		}
	})
}
