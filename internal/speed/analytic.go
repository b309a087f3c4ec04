package speed

import (
	"fmt"
	"math"

	"heteropart/internal/geometry"
)

// Analytic is a smooth synthetic speed function with the qualitative shape
// observed experimentally in the paper (Figures 1 and 5): an initial rise
// while the problem grows into the reusable part of the memory hierarchy, a
// gentle decline as the working set leaves cache, and a steep drop once the
// problem no longer fits in main memory and paging begins (the point P in
// Figure 1).
//
// The function is a product of a saturating rise and non-increasing decay
// terms,
//
//	s(x) = Peak · x/(x+HalfRise) · cache(x) · paging(x),
//
// so s(x)/x = Peak/(x+HalfRise) · cache(x) · paging(x) is strictly
// decreasing, guaranteeing the single-ray-intersection shape assumption for
// any parameter choice.
type Analytic struct {
	// Peak is the asymptotic in-cache speed in elements per second.
	Peak float64
	// HalfRise is the problem size at which the rise reaches Peak/2.
	// Small values give the almost-step-wise curves of carefully tuned
	// applications (ArrayOpsF, MatrixMultATLAS); larger values give the
	// smooth curves of applications with inefficient memory reference
	// patterns (MatrixMult). Must be positive.
	HalfRise float64
	// CacheEdge is the size beyond which the working set leaves cache and
	// speed declines linearly towards CacheDecay·Peak at PagingPoint.
	// Zero disables the cache decay term.
	CacheEdge float64
	// CacheDecay is the relative speed level reached at PagingPoint
	// (0 < CacheDecay ≤ 1).
	CacheDecay float64
	// PagingPoint is the problem size at which paging starts (point P).
	// Zero disables the paging term.
	PagingPoint float64
	// PagingWidth controls how sharply speed collapses past PagingPoint.
	PagingWidth float64
	// PagingFloor is the relative speed deep inside paging (≥ 0, < 1).
	PagingFloor float64
	// Max is the largest valid problem size (the b endpoint: main memory
	// plus swap; beyond it the machine is considered unable to run the
	// problem).
	Max float64
}

// Validate checks the parameter ranges.
func (a *Analytic) Validate() error {
	switch {
	case !(a.Peak > 0) || math.IsInf(a.Peak, 0):
		return fmt.Errorf("speed: Analytic.Peak = %v, want > 0", a.Peak)
	case !(a.HalfRise > 0):
		return fmt.Errorf("speed: Analytic.HalfRise = %v, want > 0", a.HalfRise)
	case a.CacheEdge < 0:
		return fmt.Errorf("speed: Analytic.CacheEdge = %v, want ≥ 0", a.CacheEdge)
	case a.CacheEdge > 0 && !(a.CacheDecay > 0 && a.CacheDecay <= 1):
		return fmt.Errorf("speed: Analytic.CacheDecay = %v, want in (0,1]", a.CacheDecay)
	case a.CacheEdge > 0 && a.PagingPoint > 0 && a.PagingPoint <= a.CacheEdge:
		return fmt.Errorf("speed: PagingPoint %v must exceed CacheEdge %v", a.PagingPoint, a.CacheEdge)
	case a.PagingPoint < 0:
		return fmt.Errorf("speed: Analytic.PagingPoint = %v, want ≥ 0", a.PagingPoint)
	case a.PagingPoint > 0 && !(a.PagingWidth > 0):
		return fmt.Errorf("speed: Analytic.PagingWidth = %v, want > 0", a.PagingWidth)
	case a.PagingPoint > 0 && !(a.PagingFloor >= 0 && a.PagingFloor < 1):
		return fmt.Errorf("speed: Analytic.PagingFloor = %v, want in [0,1)", a.PagingFloor)
	case !(a.Max > 0) || math.IsInf(a.Max, 0):
		return fmt.Errorf("speed: Analytic.Max = %v, want > 0", a.Max)
	}
	return nil
}

// Eval implements Function.
func (a *Analytic) Eval(x float64) float64 {
	if x <= 0 {
		return 0
	}
	s := a.Peak * x / (x + a.HalfRise)
	s *= a.cacheTerm(x)
	s *= a.pagingTerm(x)
	return s
}

// cacheTerm declines linearly from 1 at CacheEdge to CacheDecay at
// PagingPoint (or at Max when there is no paging region), then stays flat.
func (a *Analytic) cacheTerm(x float64) float64 {
	if a.CacheEdge <= 0 || x <= a.CacheEdge {
		return 1
	}
	end := a.PagingPoint
	if end <= 0 {
		end = a.Max
	}
	if x >= end {
		return a.CacheDecay
	}
	t := (x - a.CacheEdge) / (end - a.CacheEdge)
	return 1 + t*(a.CacheDecay-1)
}

// pagingTerm is 1 before PagingPoint and decays smoothly towards
// PagingFloor afterwards: floor + (1−floor)/(1 + ((x−P)/W)²).
func (a *Analytic) pagingTerm(x float64) float64 {
	if a.PagingPoint <= 0 || x <= a.PagingPoint {
		return 1
	}
	d := (x - a.PagingPoint) / a.PagingWidth
	return a.PagingFloor + (1-a.PagingFloor)/(1+d*d)
}

// MaxSize implements Function.
func (a *Analytic) MaxSize() float64 { return a.Max }

// IntersectRay implements geometry.RayIntersector. The crossing with
// y = m·x solves s(x)/x = Peak·cache(x)·paging(x)/(x+HalfRise) = m, and
// the domain splits into three regions at the joints where a term starts
// to act. Before the cache edge and the paging point both terms are 1 and
// x = Peak/m − HalfRise. In the cache-decay region cache(x) is linear,
// paging(x) is 1, and the equation is still linear in x. Only the paging
// region is a cubic; it is bisected on its own segment. The region is
// picked by comparing the ray with the graph at the joints, as
// PiecewiseLinear does with its knots, and each root is clamped into its
// region so x never increases with the slope.
func (a *Analytic) IntersectRay(m float64) (float64, bool) {
	if !(m > 0) || a.Eval(a.Max)-m*a.Max >= 0 {
		// Ray below (or touching) the graph across the whole domain.
		return a.Max, false
	}
	rise := a.Max
	if a.CacheEdge > 0 {
		rise = math.Min(rise, a.CacheEdge)
	}
	if a.PagingPoint > 0 {
		rise = math.Min(rise, a.PagingPoint)
	}
	if rise == a.Max || a.Eval(rise)-m*rise < 0 {
		// Peak/(x+HalfRise) = m; the FMA keeps Peak − m·HalfRise exact
		// when the crossing sits close to the origin.
		return clamp(math.FMA(-m, a.HalfRise, a.Peak)/m, 0, rise), true
	}
	decayEnd := rise
	if rise == a.CacheEdge {
		// cacheTerm's decay runs to the paging point, or to Max without
		// one; the paging term only starts at the former.
		end := a.Max
		if a.PagingPoint > 0 {
			end = a.PagingPoint
		}
		decayEnd = math.Min(end, a.Max)
		if decayEnd == a.Max || a.Eval(decayEnd)-m*decayEnd < 0 {
			// With u = x − CacheEdge, cache = 1 − k·u and
			// Peak·(1 − k·u) = m·(u + CacheEdge + HalfRise).
			k := (1 - a.CacheDecay) / (end - a.CacheEdge)
			u := math.FMA(-m, a.CacheEdge+a.HalfRise, a.Peak) / (m + a.Peak*k)
			return clamp(a.CacheEdge+u, rise, decayEnd), true
		}
	}
	return geometry.BisectCrossing(a, geometry.MustRay(m), decayEnd, a.Max), true
}

// clamp limits x to [lo, hi].
func clamp(x, lo, hi float64) float64 { return math.Min(math.Max(x, lo), hi) }

// String implements fmt.Stringer.
func (a *Analytic) String() string {
	return fmt.Sprintf("Analytic(peak=%.4g, paging=%.4g, max=%.4g)", a.Peak, a.PagingPoint, a.Max)
}
