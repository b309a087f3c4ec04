package core

import (
	"fmt"
	"math"
	"sort"

	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// Bounded solves the general partitioning problem of the paper's reference
// [20] restricted by per-processor upper bounds b_i on the number of
// elements each processor can store: partition n elements so that shares
// are proportional to the speed functions while no share exceeds its
// bound.
//
// The algorithm solves the unconstrained problem on the active processor
// set, clamps every share that violates its bound to the bound (a violator
// is saturated in any optimal bounded solution, because lowering it below
// the bound would force some other processor above its own proportional
// share), removes the saturated processors, and repeats on the remainder.
// At most p rounds run, each a Combined partitioning.
func Bounded(n int64, fns []speed.Function, limits []int64, opts ...Option) (Allocation, Stats, error) {
	if len(fns) == 0 {
		return nil, Stats{}, ErrNoProcessors
	}
	if len(limits) != len(fns) {
		return nil, Stats{}, fmt.Errorf("core: %d limits for %d processors", len(limits), len(fns))
	}
	if n < 0 {
		return nil, Stats{}, fmt.Errorf("%w: %d", ErrBadN, n)
	}
	var capSum int64
	for i, l := range limits {
		if l < 0 {
			return nil, Stats{}, fmt.Errorf("core: negative limit %d for processor %d", l, i)
		}
		capSum += l
	}
	if capSum < n {
		return nil, Stats{}, fmt.Errorf("%w: n=%d, Σlimits=%d", ErrBounds, n, capSum)
	}

	total := Stats{Algorithm: "bounded"}
	alloc := make(Allocation, len(fns))
	active := make([]int, 0, len(fns))
	for i := range fns {
		active = append(active, i)
	}
	remaining := n
	for remaining > 0 && len(active) > 0 {
		subFns := make([]speed.Function, len(active))
		for j, i := range active {
			subFns[j] = boundedDomain(fns[i], limits[i])
		}
		res, err := Combined(remaining, subFns, opts...)
		if err != nil {
			return nil, total, err
		}
		total.Steps += res.Stats.Steps
		total.Intersections += res.Stats.Intersections
		total.FineTuneMoves += res.Stats.FineTuneMoves

		next := active[:0]
		clamped := false
		for j, i := range active {
			x := res.Alloc[j]
			if x >= limits[i] {
				alloc[i] = limits[i]
				remaining -= limits[i]
				clamped = true
			} else {
				next = append(next, i)
			}
		}
		if !clamped {
			// No violators: the unconstrained solution is feasible as is.
			for j, i := range active {
				alloc[i] = res.Alloc[j]
			}
			remaining = 0
			break
		}
		active = next
	}
	if remaining > 0 {
		return nil, total, fmt.Errorf("%w: %d elements unplaced", ErrBounds, remaining)
	}
	return alloc, total, nil
}

// CapDomain returns f with its domain capped at limit elements, the
// building block of Bounded exposed for callers that need to exclude or
// restrict a processor directly: CapDomain(f, 0) yields a function no
// partitioner will allocate to (and whose positive shares Repartition
// treats as infeasible) — the way a supervised executor expresses a
// failed processor when redistributing its work over the survivors.
func CapDomain(f speed.Function, limit int64) speed.Function {
	return boundedDomain(f, limit)
}

// boundedDomain caps a speed function's domain at the storage limit so the
// partitioners never allocate past it.
type cappedFunction struct {
	f   speed.Function
	max float64
}

func boundedDomain(f speed.Function, limit int64) speed.Function {
	m := math.Min(f.MaxSize(), float64(limit))
	if m <= 0 {
		m = 1e-9 // zero-capacity processors take part with an empty domain
	}
	return &cappedFunction{f: f, max: m}
}

func (c *cappedFunction) Eval(x float64) float64 { return c.f.Eval(x) }
func (c *cappedFunction) MaxSize() float64       { return c.max }

// IntersectRay implements geometry.RayIntersector, keeping capped
// functions on their inner function's fast path: a crossing past the cap
// clamps to it.
func (c *cappedFunction) IntersectRay(slope float64) (float64, bool) {
	ri, ok := c.f.(geometry.RayIntersector)
	if !ok {
		return speed.BisectRay(c, slope)
	}
	x, hit := ri.IntersectRay(slope)
	if x > c.max {
		return c.max, false
	}
	return x, hit
}

// WeightedItem is one element of a weighted set.
type WeightedItem struct {
	// Weight is the element's computational weight w_i > 0.
	Weight float64
	// Index identifies the element in the caller's ordering.
	Index int
}

// Weighted assigns a set of weighted elements to processors so that the
// total weight per processor is approximately proportional to its speed at
// its assigned load — the general problem of the paper's reference [20]
// with weights, solved by the LPT-style greedy heuristic: elements are
// placed heaviest-first, each on the processor whose completion time
// (current load plus the element, divided by the speed at that load) is
// smallest. Exact proportionality is NP-hard with indivisible weights; the
// greedy bound is the classical (4/3)-style makespan approximation for
// constant speeds.
//
// It returns, per processor, the indexes of its assigned elements.
func Weighted(items []WeightedItem, fns []speed.Function) ([][]int, error) {
	if len(fns) == 0 {
		return nil, ErrNoProcessors
	}
	for _, it := range items {
		if !(it.Weight > 0) || math.IsInf(it.Weight, 0) {
			return nil, fmt.Errorf("core: invalid weight %v for element %d", it.Weight, it.Index)
		}
	}
	sorted := make([]WeightedItem, len(items))
	copy(sorted, items)
	// Heaviest first (LPT order).
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Weight > sorted[b].Weight })

	assign := make([][]int, len(fns))
	loads := make([]float64, len(fns))
	for _, it := range sorted {
		best, bestTime := -1, math.Inf(1)
		for i, f := range fns {
			newLoad := loads[i] + it.Weight
			if newLoad > f.MaxSize() {
				continue
			}
			sp := f.Eval(newLoad)
			if sp <= 0 {
				continue
			}
			if t := newLoad / sp; t < bestTime {
				best, bestTime = i, t
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("%w: element %d (weight %v) fits no processor",
				ErrBounds, it.Index, it.Weight)
		}
		assign[best] = append(assign[best], it.Index)
		loads[best] += it.Weight
	}
	return assign, nil
}
