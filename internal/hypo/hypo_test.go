package hypo

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func normals(seed uint64, n int, mean, std float64) []float64 {
	r := randx.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(mean, std)
	}
	return xs
}

// welchT and varianceF run the tests on the summaries of copied samples.
func welchT(a, b []float64) Result { return WelchT(stats.Summarize(a), stats.Summarize(b)) }

func varianceF(a, b []float64) Result { return VarianceF(stats.Summarize(a), stats.Summarize(b)) }

func TestWelchTDetectsShift(t *testing.T) {
	a := normals(1, 400, 0, 1)
	b := normals(2, 400, 1, 1)
	res := welchT(a, b)
	if !res.Valid() {
		t.Fatal("result invalid")
	}
	if res.P > 1e-6 {
		t.Errorf("shifted means p = %v, want tiny", res.P)
	}
	if res.Stat > 0 {
		t.Errorf("t stat sign wrong: %v (a has smaller mean)", res.Stat)
	}
	if !res.Significant(0.05) {
		t.Error("shifted means should be significant")
	}
}

func TestWelchTNullCalibration(t *testing.T) {
	// Under H0, p-values should be roughly uniform: check the rejection
	// rate at alpha = 0.1 over many repetitions.
	r := randx.New(3)
	reject := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 60)
		b := make([]float64, 60)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		if welchT(a, b).P < 0.1 {
			reject++
		}
	}
	rate := float64(reject) / trials
	if rate < 0.05 || rate > 0.17 {
		t.Errorf("null rejection rate at α=0.1 was %v, want ≈0.1", rate)
	}
}

func TestWelchTKnownValue(t *testing.T) {
	// Hand-computed: means 3 and 6, variances 2.5 and 10, se² = 2.5,
	// t = -3/√2.5 = -1.89737, Welch df = 6.25/1.0625 = 5.88235.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	res := welchT(a, b)
	approx(t, "t", res.Stat, -1.8973666, 1e-6)
	approx(t, "df", res.DF, 5.8823529, 1e-6)
	approx(t, "p", res.P, 0.1075312, 1e-6)
}

func TestWelchTDegenerate(t *testing.T) {
	if welchT([]float64{1}, []float64{2, 3}).Valid() {
		t.Error("n<2 should be invalid")
	}
	res := welchT([]float64{5, 5, 5}, []float64{5, 5, 5})
	approx(t, "identical constants p", res.P, 1, 0)
	res = welchT([]float64{5, 5, 5}, []float64{7, 7, 7})
	approx(t, "distinct constants p", res.P, 0, 0)
}

func TestVarianceFDetectsSpread(t *testing.T) {
	a := normals(4, 300, 0, 1)
	b := normals(5, 300, 0, 3)
	res := varianceF(a, b)
	if res.P > 1e-6 {
		t.Errorf("3× std should give tiny p, got %v", res.P)
	}
	if res.Stat < 1 {
		t.Errorf("F statistic should be the larger ratio, got %v", res.Stat)
	}
}

func TestVarianceFSymmetry(t *testing.T) {
	a := normals(6, 200, 0, 1)
	b := normals(7, 200, 0, 2)
	r1 := varianceF(a, b)
	r2 := varianceF(b, a)
	approx(t, "F symmetric p", r1.P, r2.P, 1e-12)
	approx(t, "F symmetric stat", r1.Stat, r2.Stat, 1e-12)
}

func TestVarianceFKnownValue(t *testing.T) {
	// Hand-computed: F = 10/2.5 = 4 with (4,4) df; the F(4,4) CDF at 4 is
	// I_{0.8}(2,2) = 0.896, so the two-sided p is 2·0.104 = 0.208.
	res := varianceF([]float64{1, 2, 3, 4, 5}, []float64{2, 4, 6, 8, 10})
	approx(t, "F", res.Stat, 4, 1e-12) // we report the larger-over-smaller ratio
	approx(t, "p", res.P, 0.208, 1e-9)
}

func TestVarianceFDegenerate(t *testing.T) {
	if varianceF([]float64{1}, []float64{1, 2}).Valid() {
		t.Error("n<2 should be invalid")
	}
	res := varianceF([]float64{3, 3, 3}, []float64{9, 9, 9})
	approx(t, "both constant p", res.P, 1, 0)
	res = varianceF([]float64{3, 3, 3}, []float64{1, 2, 3})
	approx(t, "one constant p", res.P, 0, 0)
}

func TestCorrelationZ(t *testing.T) {
	// Same correlation: p should be large.
	res := CorrelationZ(0.5, 100, 0.5, 100)
	approx(t, "equal r p", res.P, 1, 1e-9)
	// Very different correlations with large samples: p tiny.
	res = CorrelationZ(0.9, 500, 0.0, 500)
	if res.P > 1e-10 {
		t.Errorf("0.9 vs 0 correlation p = %v, want tiny", res.P)
	}
	if CorrelationZ(0.5, 3, 0.5, 100).Valid() {
		t.Error("n<4 should be invalid")
	}
	if CorrelationZ(math.NaN(), 100, 0.5, 100).Valid() {
		t.Error("NaN r should be invalid")
	}
	// Perfect correlations stay finite thanks to the clamped transform.
	res = CorrelationZ(1, 50, -1, 50)
	if !res.Valid() {
		t.Error("r=±1 should still yield a valid test")
	}
}

func TestChiSquareHomogeneity(t *testing.T) {
	// Identical distributions.
	res := ChiSquareHomogeneity([]float64{50, 50}, []float64{100, 100})
	approx(t, "identical p", res.P, 1, 1e-9)
	// Strongly different distributions.
	res = ChiSquareHomogeneity([]float64{90, 10}, []float64{10, 90})
	if res.P > 1e-10 {
		t.Errorf("opposite distributions p = %v, want tiny", res.P)
	}
	if res.DF != 1 {
		t.Errorf("df = %v, want 1", res.DF)
	}
}

func TestChiSquareDegenerate(t *testing.T) {
	if ChiSquareHomogeneity(nil, nil).Valid() {
		t.Error("empty counts should be invalid")
	}
	if ChiSquareHomogeneity([]float64{1, 2}, []float64{1}).Valid() {
		t.Error("mismatched counts should be invalid")
	}
	if ChiSquareHomogeneity([]float64{0, 0}, []float64{1, 1}).Valid() {
		t.Error("empty sample should be invalid")
	}
	if ChiSquareHomogeneity([]float64{-1, 2}, []float64{1, 1}).Valid() {
		t.Error("negative counts should be invalid")
	}
	// Only one populated category → untestable.
	if ChiSquareHomogeneity([]float64{5, 0}, []float64{7, 0}).Valid() {
		t.Error("single category should be invalid")
	}
	// Categories empty in both samples are ignored but the test remains valid.
	res := ChiSquareHomogeneity([]float64{5, 0, 5}, []float64{7, 0, 7})
	if !res.Valid() || res.DF != 1 {
		t.Error("shared-empty category should be ignored")
	}
}

// mannWhitney runs the test on a fresh ranking of the pair, as every
// caller outside the engine's column walk does.
func mannWhitney(a, b []float64) Result { return MannWhitneyURanked(stats.NewRanking(a, b)) }

func TestMannWhitneyURanked(t *testing.T) {
	a := normals(8, 200, 0, 1)
	b := normals(9, 200, 2, 1)
	res := mannWhitney(a, b)
	if res.P > 1e-6 {
		t.Errorf("shifted distributions p = %v, want tiny", res.P)
	}
	// Identical samples: p near 1.
	c := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res = mannWhitney(c, c)
	if res.P < 0.9 {
		t.Errorf("identical samples p = %v, want ≈1", res.P)
	}
	if mannWhitney([]float64{1}, c).Valid() {
		t.Error("n<2 should be invalid")
	}
	// All-tied data: the rank variance collapses to zero, so the test is
	// untestable — P must be NaN, not a significance claim.
	res = mannWhitney([]float64{5, 5, 5}, []float64{5, 5, 5})
	if !math.IsNaN(res.P) {
		t.Errorf("all ties p = %v, want NaN", res.P)
	}
}

// TestMannWhitneyDegenerate pins the untestable-input contract: all-ties
// columns, single-element groups, and NaN-bearing samples yield P = NaN
// (never a panic, never a fake significance).
func TestMannWhitneyDegenerate(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
	}{
		{"all-ties", []float64{7, 7, 7, 7}, []float64{7, 7, 7}},
		{"single-element-a", []float64{1}, []float64{2, 3, 4}},
		{"single-element-b", []float64{1, 2, 3}, []float64{4}},
		{"empty-a", nil, []float64{1, 2, 3}},
		{"nan-in-a", []float64{1, math.NaN(), 3}, []float64{4, 5, 6}},
		{"nan-in-b", []float64{1, 2, 3}, []float64{4, math.NaN(), 6}},
		{"all-nan", []float64{math.NaN(), math.NaN()}, []float64{math.NaN(), math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if res := MannWhitneyURanked(stats.NewRanking(tc.a, tc.b)); !math.IsNaN(res.P) {
				t.Errorf("MannWhitneyURanked P = %v, want NaN", res.P)
			}
		})
	}
}

// TestMannWhitneyTextbookTies pins the test to values computed by hand.
// Pooled ranks of a = {1.1, 2, 2, 3.5, 5} and b = {2, 3.5, 4, 6, 7, 8}:
// 1.1 → 1, the three 2s → 3, the two 3.5s → 5.5, 4 → 7, 5 → 8, then 9, 10,
// 11. So W = 1 + 3 + 3 + 5.5 + 8 = 20.5, Σ(t³−t) = 24 + 6 = 30 and
// U = W − 5·6/2 = 5.5. Under the continuity-corrected normal approximation
// μ = 15, σ² = (30/12)·(12 − 30/110) = 29.318…, z = (5.5 − 15 + 0.5)/σ =
// −1.66216…, and P = 2·Φ(−|z|) = 0.0964798035.
func TestMannWhitneyTextbookTies(t *testing.T) {
	a := []float64{1.1, 2, 2, 3.5, 5}
	b := []float64{2, 3.5, 4, 6, 7, 8}
	r := stats.NewRanking(a, b)
	if r.RankSumA != 20.5 || r.TieSum != 30 {
		t.Errorf("RankSumA, TieSum = %v, %v; want 20.5, 30", r.RankSumA, r.TieSum)
	}
	res := MannWhitneyURanked(r)
	if res.Stat != 5.5 {
		t.Errorf("U = %v, want 5.5", res.Stat)
	}
	approx(t, "p", res.P, 0.0964798035, 1e-9)
}

func TestMannWhitneyRobustToOutliers(t *testing.T) {
	// Same center but one wild outlier: MW should NOT scream, while the
	// mean-based test might. This is why the engine offers robust mode.
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1e6}
	res := mannWhitney(a, b)
	if res.P < 0.2 {
		t.Errorf("outlier-only difference p = %v, want large", res.P)
	}
}
