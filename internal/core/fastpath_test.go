package core_test

import (
	"slices"
	"testing"

	"heteropart/internal/apps/lu"
	"heteropart/internal/apps/mm"
	"heteropart/internal/core"
	"heteropart/internal/experiments"
	"heteropart/internal/geometry"
	"heteropart/internal/machine"
	"heteropart/internal/speed"
)

// evalOnly hides a speed function's analytic ray intersection, so every
// intersection through it bisects: the reference the fast path must match.
type evalOnly struct{ f speed.Function }

func (e evalOnly) Eval(x float64) float64 { return e.f.Eval(x) }
func (e evalOnly) MaxSize() float64       { return e.f.MaxSize() }

func hideFastPath(fns []speed.Function) []speed.Function {
	out := make([]speed.Function, len(fns))
	for i, f := range fns {
		out[i] = evalOnly{f}
	}
	return out
}

// TestFastPathMatchesBisectionFig21 partitions the Figure 21 clusters with
// every algorithm and search option, once through the closed-form ray
// intersections and once behind Eval-only adapters that force bisection:
// the integer allocations must be bit-identical.
func TestFastPathMatchesBisectionFig21(t *testing.T) {
	ns := []int64{250_000_000, 500_000_000, 1_000_000_000, 2_000_000_000}
	if testing.Short() {
		ns = ns[:1]
	}
	for _, p := range []int{270, 1080} {
		fast, err := experiments.SyntheticCluster(p, machine.MatrixMult)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fast[0].(geometry.RayIntersector); !ok {
			t.Fatalf("p=%d: synthetic cluster functions lack the analytic fast path", p)
		}
		slow := hideFastPath(fast)
		for _, n := range ns {
			cold, err := core.Combined(n, fast)
			if err != nil {
				t.Fatal(err)
			}
			optSets := map[string][]core.Option{
				"default": nil,
				"angles":  {core.WithBisection(geometry.BisectAngles)},
				"warm":    {core.WithWarmStart(cold.Slope*1.01, 0.05)},
			}
			for _, algo := range []core.Algorithm{core.AlgoBasic, core.AlgoModified, core.AlgoCombined} {
				for name, opts := range optSets {
					want := make(core.Allocation, p)
					got := make(core.Allocation, p)
					if _, err := core.NewPartitioner().PartitionInto(want, algo, n, slow, opts...); err != nil {
						t.Fatalf("p=%d n=%d %v/%s bisection: %v", p, n, algo, name, err)
					}
					if _, err := core.NewPartitioner().PartitionInto(got, algo, n, fast, opts...); err != nil {
						t.Fatalf("p=%d n=%d %v/%s fast path: %v", p, n, algo, name, err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("p=%d n=%d %v/%s: fast-path allocation differs from bisection", p, n, algo, name)
					}
				}
			}
		}
	}
}

// table2Rates returns the Table 2 machines' flop-rate functions for k.
func table2Rates(t *testing.T, k machine.Kernel) []speed.Function {
	t.Helper()
	var fns []speed.Function
	for _, m := range machine.Table2() {
		f, err := m.FlopRate(k)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, f)
	}
	return fns
}

// TestFastPathMatchesBisectionApps checks the applications' partitions on
// Table 2 rates — the MM row striping, the LU Variable Group Block
// distribution, and a bounded partition through capped functions — against
// the same rates behind Eval-only adapters.
func TestFastPathMatchesBisectionApps(t *testing.T) {
	mmRates := table2Rates(t, machine.MatrixMult)
	for _, n := range []int{1024, 4096, 16384} {
		want, err := mm.PartitionFPM(n, hideFastPath(mmRates))
		if err != nil {
			t.Fatal(err)
		}
		got, err := mm.PartitionFPM(n, mmRates)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Rows, want.Rows) {
			t.Errorf("mm n=%d: rows %v, bisection %v", n, got.Rows, want.Rows)
		}
	}

	luRates := table2Rates(t, machine.LUFact)
	for _, n := range []int{1024, 8192} {
		want, err := lu.VariableGroupBlock(n, 32, hideFastPath(luRates))
		if err != nil {
			t.Fatal(err)
		}
		got, err := lu.VariableGroupBlock(n, 32, luRates)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Owners, want.Owners) || !slices.Equal(got.GroupSizes, want.GroupSizes) {
			t.Errorf("lu n=%d: distribution differs from bisection", n)
		}
	}

	limits := make([]int64, len(mmRates))
	for i := range limits {
		limits[i] = 900_000
	}
	if _, ok := core.CapDomain(mmRates[0], limits[0]).(geometry.RayIntersector); !ok {
		t.Fatal("CapDomain dropped the analytic fast path")
	}
	for _, n := range []int64{5_000_000, 10_000_000} {
		want, _, err := core.Bounded(n, hideFastPath(mmRates), limits)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := core.Bounded(n, mmRates, limits)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("bounded n=%d: %v, bisection %v", n, got, want)
		}
		capped := 0
		for i := range got {
			if got[i] == limits[i] {
				capped++
			}
		}
		if capped == 0 {
			t.Errorf("bounded n=%d: no processor reached its cap", n)
		}
	}
}
