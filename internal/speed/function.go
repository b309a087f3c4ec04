// Package speed implements the functional performance model at the heart of
// the paper: the speed of a processor is a continuous, relatively smooth
// function of the size of the problem (the amount of data stored and
// processed), rather than a single number.
//
// The package provides several representations — a constant function (the
// classical single-number model expressed in the same interface), piecewise
// linear functions (the practical representation built from experimental
// points, §3.1), an analytic model with cache and paging regions (used to
// synthesize the curves of Figures 1, 3 and 5), and performance bands
// (Figure 2) — together with the recursive-trisection builder that
// constructs a piecewise linear approximation from a measurement oracle.
//
// Every Function must satisfy the paper's shape assumption: any straight
// line through the origin intersects the graph in at most one point.
// This is equivalent to Eval(x)/x being strictly decreasing, and it is what
// makes each bisection step of the partitioning algorithms well defined.
package speed

import (
	"errors"
	"fmt"
	"math"

	"heteropart/internal/geometry"
)

// Function is a speed function of problem size. Speeds are expressed in
// elements per second (callers converting from MFlops use the kernel's
// flops-per-element factor). Eval must be continuous, non-negative, and
// Eval(x)/x must be strictly decreasing on (0, MaxSize].
type Function interface {
	// Eval returns the processor speed at problem size x ≥ 0. For x beyond
	// MaxSize implementations extend the function with its boundary value.
	Eval(x float64) float64
	// MaxSize returns the largest problem size for which the function is
	// considered valid (the b endpoint of the paper's interval [a, b],
	// where the speed has dropped to practically zero).
	MaxSize() float64
}

// Constant is the classical single-number performance model expressed as a
// degenerate speed function: the same speed at every problem size.
type Constant struct {
	speed float64
	max   float64
}

// NewConstant returns a constant speed function valid on (0, maxSize].
func NewConstant(s, maxSize float64) (Constant, error) {
	if !(s >= 0) || math.IsInf(s, 0) {
		return Constant{}, fmt.Errorf("speed: invalid constant speed %v", s)
	}
	if !(maxSize > 0) || math.IsInf(maxSize, 0) {
		return Constant{}, fmt.Errorf("speed: invalid max size %v", maxSize)
	}
	return Constant{speed: s, max: maxSize}, nil
}

// MustConstant is like NewConstant but panics on invalid arguments.
func MustConstant(s, maxSize float64) Constant {
	c, err := NewConstant(s, maxSize)
	if err != nil {
		panic(err)
	}
	return c
}

// Eval implements Function.
func (c Constant) Eval(x float64) float64 { return c.speed }

// Speed returns the constant speed, for serializers that must reproduce
// the function exactly (the store's binary model codec).
func (c Constant) Speed() float64 { return c.speed }

// MaxSize implements Function.
func (c Constant) MaxSize() float64 { return c.max }

// IntersectRay implements geometry.RayIntersector analytically: the ray
// y = slope·x meets y = speed at x = speed/slope.
func (c Constant) IntersectRay(slope float64) (float64, bool) {
	if slope <= 0 {
		return c.max, false
	}
	x := c.speed / slope
	if x > c.max {
		return c.max, false
	}
	return x, true
}

// String implements fmt.Stringer.
func (c Constant) String() string {
	return fmt.Sprintf("Constant(%.6g el/s, max %.6g)", c.speed, c.max)
}

// ErrShape reports a violation of the single-ray-intersection shape
// assumption (Eval(x)/x must be strictly decreasing).
var ErrShape = errors.New("speed: function violates shape assumption (s(x)/x not strictly decreasing)")

// CheckShape samples f at the given number of logarithmically spaced points
// over (0, f.MaxSize()] and verifies that Eval(x)/x is strictly decreasing.
// It returns nil when the property holds at every sampled pair and wraps
// ErrShape otherwise. A sample count below 2 is an error.
func CheckShape(f Function, samples int) error {
	if samples < 2 {
		return fmt.Errorf("speed: CheckShape needs at least 2 samples, got %d", samples)
	}
	maxX := f.MaxSize()
	if !(maxX > 0) {
		return fmt.Errorf("speed: non-positive MaxSize %v", maxX)
	}
	lo := maxX * 1e-9
	ratio := math.Pow(maxX/lo, 1/float64(samples-1))
	prevX := lo
	prev := f.Eval(lo) / lo
	for i := 1; i < samples; i++ {
		x := lo * math.Pow(ratio, float64(i))
		cur := f.Eval(x) / x
		if !(cur < prev) {
			return fmt.Errorf("%w: s(x)/x rises from %.6g at x=%.6g to %.6g at x=%.6g",
				ErrShape, prev, prevX, cur, x)
		}
		prev, prevX = cur, x
	}
	return nil
}

// Scale wraps a Function, multiplying the abscissa by xFactor before
// evaluation. It converts a speed function of one unit of problem size into
// a function of another (e.g. a function of matrix elements into a function
// of matrix rows, with xFactor = 3·n elements per row for the paper's
// striped C = A×Bᵀ multiplication). Scaling the abscissa preserves the
// shape assumption.
type Scale struct {
	F       Function
	XFactor float64
}

// NewScale returns f viewed through an abscissa scale factor > 0.
func NewScale(f Function, xFactor float64) (*Scale, error) {
	if f == nil {
		return nil, errors.New("speed: NewScale: nil function")
	}
	if !(xFactor > 0) || math.IsInf(xFactor, 0) {
		return nil, fmt.Errorf("speed: invalid scale factor %v", xFactor)
	}
	return &Scale{F: f, XFactor: xFactor}, nil
}

// Eval implements Function: the speed at x units is the speed of the
// underlying function at x·XFactor elements.
func (s *Scale) Eval(x float64) float64 { return s.F.Eval(x * s.XFactor) }

// MaxSize implements Function.
func (s *Scale) MaxSize() float64 { return s.F.MaxSize() / s.XFactor }

// IntersectRay implements geometry.RayIntersector. The ray y = slope·x
// meets F(k·x) exactly where the ray y' = (slope/k)·x' meets F(x'), with
// x = x'/k. When the wrapped function has no analytic fast path the
// intersection is computed numerically.
func (s *Scale) IntersectRay(slope float64) (float64, bool) {
	if ri, ok := s.F.(geometry.RayIntersector); ok {
		x, hit := ri.IntersectRay(slope / s.XFactor)
		return x / s.XFactor, hit
	}
	return BisectRay(s, slope)
}

// BisectRay intersects f's graph with the ray y = slope·x by bisection
// over (0, f.MaxSize()], ignoring any analytic fast path f has. It returns
// (MaxSize, false) when the ray never rises above the graph. Wrapper
// functions fall back to it from their IntersectRay when the function
// they wrap has no fast path of its own.
func BisectRay(f Function, slope float64) (float64, bool) {
	ray, err := geometry.NewRay(slope)
	if err != nil {
		return f.MaxSize(), false
	}
	// The adapter hides f's IntersectRay so that geometry.Intersect takes
	// its bisection path instead of recursing.
	x, err := geometry.Intersect(curveOnly{f}, ray, f.MaxSize())
	if err != nil {
		return f.MaxSize(), false
	}
	return x, x < f.MaxSize()
}

// curveOnly strips every method but Eval from a Function, forcing
// geometry.Intersect onto its numeric path.
type curveOnly struct{ f Function }

func (c curveOnly) Eval(x float64) float64 { return c.f.Eval(x) }
