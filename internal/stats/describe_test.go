package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 32.0/7.0, 1e-12)
	approx(t, "StdDev", StdDev(xs), math.Sqrt(32.0/7.0), 1e-12)
}

func TestEmptyAndSingleton(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of singleton should be NaN")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	mn, mx := MinMax(nil)
	if !math.IsNaN(mn) || !math.IsNaN(mx) {
		t.Error("MinMax(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	mn, mx := MinMax([]float64{3, -1, 4, 1, 5})
	if mn != -1 || mx != 5 {
		t.Fatalf("MinMax = (%v, %v), want (-1, 5)", mn, mx)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	approx(t, "Q0", Quantile(sorted, 0), 1, 0)
	approx(t, "Q1", Quantile(sorted, 1), 4, 0)
	approx(t, "median", Quantile(sorted, 0.5), 2.5, 1e-12)
	approx(t, "Q0.25", Quantile(sorted, 0.25), 1.75, 1e-12)
	approx(t, "singleton", Quantile([]float64{7}, 0.9), 7, 0)
	approx(t, "median odd", Median([]float64{5, 1, 3}), 3, 0)
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Quantile misuse did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
	if len(Ranks(nil)) != 0 {
		t.Error("Ranks(nil) should be empty")
	}
}

// Property: variance is non-negative and shift-invariant; mean is
// shift-equivariant.
func TestDescribeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		v := Variance(xs)
		if v < -1e-9 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 100
		}
		if math.Abs(Variance(shifted)-v) > 1e-6*(1+math.Abs(v)) {
			return false
		}
		return math.Abs(Mean(shifted)-Mean(xs)-100) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranks are a permutation of 1..n when all values are distinct.
func TestRanksProperty(t *testing.T) {
	r := randx.New(77)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(40) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		ranks := Ranks(xs)
		sum := 0.0
		for _, rk := range ranks {
			sum += rk
		}
		want := float64(n*(n+1)) / 2
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("rank sum = %v, want %v", sum, want)
		}
	}
}
