package stats

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/randx"
)

func TestNormalCDFKnownValues(t *testing.T) {
	approx(t, "Φ(0)", NormalCDF(0), 0.5, 1e-12)
	approx(t, "Φ(1.96)", NormalCDF(1.959963984540054), 0.975, 1e-9)
	approx(t, "Φ(-1.6449)", NormalCDF(-1.6448536269514722), 0.05, 1e-9)
	approx(t, "Φ(3)", NormalCDF(3), 0.9986501019683699, 1e-12)
	approx(t, "SF(3)", NormalSF(3), 1-0.9986501019683699, 1e-12)
}

func TestNormalCDFSymmetry(t *testing.T) {
	for _, z := range []float64{0.1, 0.7, 1.3, 2.9, 5} {
		approx(t, "symmetry", NormalCDF(z)+NormalCDF(-z), 1, 1e-12)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.99, 0.999} {
		z := NormalQuantile(p)
		approx(t, "quantile round-trip", NormalCDF(z), p, 1e-10)
	}
	approx(t, "q(0.975)", NormalQuantile(0.975), 1.959963984540054, 1e-8)
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile at 0/1 should be ±Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) || !math.IsNaN(NormalQuantile(1.5)) {
		t.Error("quantile outside [0,1] should be NaN")
	}
}

func TestRegIncBetaClosedForms(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		approx(t, "I_x(1,1)", RegIncBeta(1, 1, x), x, 1e-12)
	}
	// I_x(2,2) = x²(3-2x).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		approx(t, "I_x(2,2)", RegIncBeta(2, 2, x), x*x*(3-2*x), 1e-10)
	}
	if !math.IsNaN(RegIncBeta(-1, 1, 0.5)) || !math.IsNaN(RegIncBeta(1, 1, 2)) {
		t.Error("invalid arguments should be NaN")
	}
}

func TestRegIncGamma(t *testing.T) {
	// Q(1, x) = exp(-x).
	for _, x := range []float64{0, 0.5, 1, 2, 5, 10} {
		approx(t, "Q(1,x)", RegIncGammaQ(1, x), math.Exp(-x), 1e-10)
	}
	// Closed forms across regimes (series below a+1, continued fraction
	// above): Q(1/2, x) = erfc(√x) and, for integer a, Q(a, x) =
	// exp(-x)·Σ_{k<a} x^k/k!.
	for _, x := range []float64{0.1, 1, 5, 20} {
		approx(t, "Q(0.5,x)", RegIncGammaQ(0.5, x), math.Erfc(math.Sqrt(x)), 1e-10)
		for _, a := range []int{3, 10} {
			sum, term := 0.0, 1.0
			for k := 0; k < a; k++ {
				sum += term
				term *= x / float64(k+1)
			}
			approx(t, fmt.Sprintf("Q(%d,x)", a), RegIncGammaQ(float64(a), x), math.Exp(-x)*sum, 1e-10)
		}
	}
	if !math.IsNaN(RegIncGammaQ(-1, 1)) || !math.IsNaN(RegIncGammaQ(0, 1)) {
		t.Error("invalid arguments should be NaN")
	}
	approx(t, "Q(2,0)", RegIncGammaQ(2, 0), 1, 0)
}

func TestStudentT(t *testing.T) {
	approx(t, "two-tail T(0)", StudentTTwoTail(0, 10), 1, 1e-12)
	// Known value: P(|T| >= 2.228) = 0.05 for df=10 (t-table).
	approx(t, "two-tail T(2.228, 10)", StudentTTwoTail(2.2281388519649385, 10), 0.05, 1e-6)
	// Two-tailed p for t=2, df=10 is 0.0734 (R: 2*pt(-2,10) = 0.07338803).
	approx(t, "two-tail", StudentTTwoTail(2, 10), 0.07338803, 1e-6)
	approx(t, "two-tail symmetric", StudentTTwoTail(-2, 10), StudentTTwoTail(2, 10), 1e-12)
	// Large df converges to normal.
	approx(t, "T→Φ", StudentTTwoTail(1.96, 1e6), 2*NormalSF(1.96), 1e-4)
	if !math.IsNaN(StudentTTwoTail(1, 0)) {
		t.Error("df=0 should be NaN")
	}
	approx(t, "two-tail Inf", StudentTTwoTail(math.Inf(1), 5), 0, 0)
	approx(t, "two-tail -Inf", StudentTTwoTail(math.Inf(-1), 5), 0, 0)
}

func TestChiSquared(t *testing.T) {
	// Known critical value: P(X > 3.8415) = 0.05 for df=1.
	approx(t, "χ² df1", ChiSquaredSF(3.841458820694124, 1), 0.05, 1e-8)
	// P(X > 18.307) = 0.05 for df=10.
	approx(t, "χ² df10", ChiSquaredSF(18.307038053275146, 10), 0.05, 1e-8)
	// df=2 is the exponential with mean 2: P(X > x) = exp(-x/2).
	approx(t, "χ² df2", ChiSquaredSF(7, 2), math.Exp(-3.5), 1e-10)
	approx(t, "SF(0)", ChiSquaredSF(-1, 3), 1, 0)
	if !math.IsNaN(ChiSquaredSF(1, -1)) {
		t.Error("negative df should be NaN")
	}
}

func TestFDist(t *testing.T) {
	// For d1 == d2 the F distribution has median 1.
	for _, d := range []float64{2, 5, 10, 30} {
		approx(t, "F median", FSF(1, d, d), 0.5, 1e-10)
	}
	// Known critical value: P(F > 4.964) ≈ 0.05 for (1, 10) df? Actually
	// qf(0.95, 1, 10) = 4.9646. Use SF.
	approx(t, "F crit", FSF(4.964602743730711, 1, 10), 0.05, 1e-6)
	approx(t, "F SF(0)", FSF(-1, 3, 7), 1, 0)
	if !math.IsNaN(FSF(1, 0, 5)) || !math.IsNaN(FSF(1, 5, 0)) {
		t.Error("invalid df should be NaN")
	}
	// Relation to t: if T ~ t(df) then T² ~ F(1, df).
	approx(t, "t²~F", FSF(4, 1, 10), StudentTTwoTail(2, 10), 1e-9)
}

// Property check via simulation: the empirical CDF of simulated normals must
// match NormalCDF within Dvoretzky-Kiefer-Wolfowitz-ish tolerance.
func TestNormalCDFAgainstSimulation(t *testing.T) {
	r := randx.New(123)
	const n = 100000
	for _, z := range []float64{-1.5, -0.5, 0, 0.8, 2.0} {
		count := 0
		rr := randx.New(uint64(123 + int(z*10)))
		_ = rr
		for i := 0; i < n; i++ {
			if r.NormFloat64() <= z {
				count++
			}
		}
		emp := float64(count) / n
		if math.Abs(emp-NormalCDF(z)) > 0.006 {
			t.Errorf("empirical CDF at %v = %v, analytic %v", z, emp, NormalCDF(z))
		}
	}
}
