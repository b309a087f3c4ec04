package speed

import (
	"errors"
	"fmt"
	"math"

	"heteropart/internal/geometry"
)

// WidthModel gives the relative full width of a performance band at problem
// size x (e.g. 0.40 = the band spans ±20 % around the mid curve). The paper
// observes widths around 40 % at small problem sizes declining close to
// linearly with execution time to about 6 % at the maximum solvable size
// for highly network-integrated computers, and a flat 5–7 % for computers
// with low integration (Figure 2).
type WidthModel func(x float64) float64

// ConstantWidth returns a WidthModel with the same relative width at every
// problem size, as observed for computers with a low level of network
// integration.
func ConstantWidth(w float64) WidthModel {
	return func(float64) float64 { return w }
}

// DecliningWidth returns a WidthModel declining linearly from w0 at size 0
// to w1 at size maxX (clamped beyond), matching the close-to-linear decline
// of band width with execution time reported in the paper.
func DecliningWidth(w0, w1, maxX float64) WidthModel {
	return func(x float64) float64 {
		if x >= maxX {
			return w1
		}
		if x <= 0 {
			return w0
		}
		return w0 + (w1-w0)*(x/maxX)
	}
}

// Band represents the speed of a processor as a band of curves rather than
// a single curve, capturing workload fluctuations on non-dedicated
// computers (Figure 2). The mid curve is the representative speed function
// used for partitioning; Lower and Upper delimit the fluctuation range.
type Band struct {
	mid   Function
	width WidthModel
}

// NewBand wraps a mid speed function with a width model.
func NewBand(mid Function, width WidthModel) (*Band, error) {
	if mid == nil {
		return nil, errors.New("speed: NewBand: nil mid function")
	}
	if width == nil {
		return nil, errors.New("speed: NewBand: nil width model")
	}
	return &Band{mid: mid, width: width}, nil
}

// Mid returns the representative speed function.
func (b *Band) Mid() Function { return b.mid }

// Width returns the relative full width of the band at size x.
func (b *Band) Width(x float64) float64 { return b.width(x) }

// Lower returns the band's lower speed at size x.
func (b *Band) Lower(x float64) float64 {
	return b.mid.Eval(x) * (1 - b.width(x)/2)
}

// Upper returns the band's upper speed at size x.
func (b *Band) Upper(x float64) float64 {
	return b.mid.Eval(x) * (1 + b.width(x)/2)
}

// Shifted returns a new band whose mid curve is the original scaled by the
// given factor with the absolute width preserved, modelling the paper's
// observation that adding heavy load to an already-busy computer shifts the
// band to a lower level while the width between the levels stays the same.
func (b *Band) Shifted(factor float64) (*Band, error) {
	if !(factor > 0) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("speed: invalid band shift factor %v", factor)
	}
	shifted := &scaledFunction{f: b.mid, factor: factor}
	origMid, origWidth := b.mid, b.width
	// Absolute width w·s is preserved: new relative width = w·s/(factor·s).
	w := func(x float64) float64 { return origWidth(x) / factor }
	_ = origMid
	return &Band{mid: shifted, width: w}, nil
}

// scaledFunction multiplies a Function's speed by a constant factor, which
// preserves the shape assumption.
type scaledFunction struct {
	f      Function
	factor float64
}

func (s *scaledFunction) Eval(x float64) float64 { return s.factor * s.f.Eval(x) }
func (s *scaledFunction) MaxSize() float64       { return s.f.MaxSize() }

// IntersectRay implements geometry.RayIntersector: the ray y = slope·x
// meets factor·f(x) exactly where y = (slope/factor)·x meets f(x).
func (s *scaledFunction) IntersectRay(slope float64) (float64, bool) {
	if ri, ok := s.f.(geometry.RayIntersector); ok {
		return ri.IntersectRay(slope / s.factor)
	}
	return BisectRay(s, slope)
}

// ScaleSpeed returns f with its ordinate multiplied by factor > 0.
func ScaleSpeed(f Function, factor float64) (Function, error) {
	if f == nil {
		return nil, errors.New("speed: ScaleSpeed: nil function")
	}
	if !(factor > 0) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("speed: invalid speed scale factor %v", factor)
	}
	return &scaledFunction{f: f, factor: factor}, nil
}

// EstimateBand measures the width of a processor's performance band
// empirically — the procedure behind Figure 2: sample the oracle repeats
// times at each size, record the relative spread, and fit a linear width
// model (the paper observes a close-to-linear decline of width with
// execution time). The returned widths are per size; the WidthModel clamps
// the fit to the observed range.
func EstimateBand(oracle Oracle, sizes []float64, repeats int) ([]float64, WidthModel, error) {
	if oracle == nil {
		return nil, nil, errors.New("speed: EstimateBand: nil oracle")
	}
	if len(sizes) == 0 {
		return nil, nil, errors.New("speed: EstimateBand: no sizes")
	}
	if repeats < 2 {
		return nil, nil, fmt.Errorf("speed: EstimateBand: need ≥ 2 repeats, got %d", repeats)
	}
	widths := make([]float64, len(sizes))
	for i, x := range sizes {
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for r := 0; r < repeats; r++ {
			v, err := oracle(x)
			if err != nil {
				return nil, nil, fmt.Errorf("speed: EstimateBand at %v: %w", x, err)
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			sum += v
		}
		mean := sum / float64(repeats)
		if mean <= 0 {
			widths[i] = 0
			continue
		}
		widths[i] = (hi - lo) / mean
	}
	// Least-squares line width = a + b·size, clamped to the observed range.
	var sx, sy, sxx, sxy float64
	for i, x := range sizes {
		sx += x
		sy += widths[i]
		sxx += x * x
		sxy += x * widths[i]
	}
	nf := float64(len(sizes))
	den := nf*sxx - sx*sx
	a, b := sy/nf, 0.0
	if den != 0 {
		b = (nf*sxy - sx*sy) / den
		a = (sy - b*sx) / nf
	}
	minW, maxW := math.Inf(1), 0.0
	for _, w := range widths {
		minW, maxW = math.Min(minW, w), math.Max(maxW, w)
	}
	model := func(x float64) float64 {
		w := a + b*x
		return math.Min(math.Max(w, minW), maxW)
	}
	return widths, model, nil
}
