package stats

import "math"

// This file provides the distribution functions used by package hypo to turn
// test statistics into p-values: the standard normal, Student's t,
// chi-squared, and Fisher's F distributions. Only CDFs and (for the normal)
// the quantile function are needed; densities are omitted on purpose.

// NormalCDF returns P(Z <= z) for a standard normal variable.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalSF returns the upper tail P(Z > z); more accurate than
// 1-NormalCDF(z) for large z.
func NormalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// NormalQuantile returns the z such that NormalCDF(z) = p, for p in (0, 1).
// It uses the Acklam rational approximation refined by one Halley step,
// accurate to full double precision over the open interval.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		if p == 0 {
			return math.Inf(-1)
		}
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// StudentTTwoTail returns P(|T| >= |t|), the two-sided p-value.
func StudentTTwoTail(t, df float64) float64 {
	if df <= 0 || math.IsNaN(t) {
		return math.NaN()
	}
	if math.IsInf(t, 0) {
		return 0
	}
	x := df / (df + t*t)
	return RegIncBeta(df/2, 0.5, x)
}

// ChiSquaredSF returns the upper tail P(X > x).
func ChiSquaredSF(x, df float64) float64 {
	if df <= 0 || math.IsNaN(x) {
		return math.NaN()
	}
	if x <= 0 {
		return 1
	}
	return RegIncGammaQ(df/2, x/2)
}

// FSF returns the upper tail P(X > x) of the F distribution.
func FSF(x, d1, d2 float64) float64 {
	if d1 <= 0 || d2 <= 0 || math.IsNaN(x) {
		return math.NaN()
	}
	if x <= 0 {
		return 1
	}
	return RegIncBeta(d2/2, d1/2, d2/(d1*x+d2))
}
