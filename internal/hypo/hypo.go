// Package hypo implements the significance machinery of Ziggy's
// post-processing stage (paper §3): asymptotic two-sample hypothesis tests
// for each Zig-Component, and schemes for aggregating per-component p-values
// into a per-view confidence score (minimum rule or Bonferroni correction,
// plus Holm, Fisher and Stouffer variants for completeness).
//
// Every test returns a Result carrying the test statistic, the degrees of
// freedom where meaningful, and a two-sided p-value. Invalid inputs (too few
// observations, zero variances where forbidden) yield P = NaN so that the
// caller can treat the component as untestable rather than significant.
package hypo

import (
	"math"

	"repro/internal/stats"
)

// Result reports the outcome of one hypothesis test.
type Result struct {
	// Stat is the test statistic (t, F, z or χ² depending on the test).
	Stat float64
	// DF holds the degrees of freedom; DF2 is used only by the F test.
	DF, DF2 float64
	// P is the two-sided p-value, or NaN when the test is inapplicable.
	P float64
}

// Valid reports whether the test produced a usable p-value.
func (r Result) Valid() bool { return !math.IsNaN(r.P) }

// Significant reports whether the result is valid and below alpha.
func (r Result) Significant(alpha float64) bool {
	return r.Valid() && r.P < alpha
}

// WelchT tests H₀: mean(a) = mean(b) from the two samples' summaries
// without assuming equal variances, using the Welch–Satterthwaite degrees
// of freedom. This is the asymptotic bound behind the difference-of-means
// Zig-Component.
func WelchT(a, b stats.Summary) Result {
	na, nb := float64(a.N), float64(b.N)
	if na < 2 || nb < 2 {
		return Result{P: math.NaN()}
	}
	ma, mb := a.Mean, b.Mean
	va, vb := a.Var, b.Var
	sea := va / na
	seb := vb / nb
	se := sea + seb
	if se <= 0 {
		// Zero variance on both sides: distinguishable only if the means
		// differ, in which case the difference is deterministic.
		if ma == mb {
			return Result{Stat: 0, DF: na + nb - 2, P: 1}
		}
		return Result{Stat: math.Inf(1), DF: na + nb - 2, P: 0}
	}
	tStat := (ma - mb) / math.Sqrt(se)
	df := se * se / (sea*sea/(na-1) + seb*seb/(nb-1))
	return Result{Stat: tStat, DF: df, P: stats.StudentTTwoTail(tStat, df)}
}

// VarianceF tests H₀: var(a) = var(b) from the two samples' summaries with
// the F ratio test. The statistic is the larger variance over the smaller,
// and the two-sided p-value is twice the upper tail (capped at 1). This
// backs the difference-of-standard-deviations Zig-Component.
func VarianceF(a, b stats.Summary) Result {
	na, nb := float64(a.N), float64(b.N)
	if na < 2 || nb < 2 {
		return Result{P: math.NaN()}
	}
	va, vb := a.Var, b.Var
	if va <= 0 && vb <= 0 {
		return Result{Stat: 1, DF: na - 1, DF2: nb - 1, P: 1}
	}
	if va <= 0 || vb <= 0 {
		return Result{Stat: math.Inf(1), DF: na - 1, DF2: nb - 1, P: 0}
	}
	f := va / vb
	d1, d2 := na-1, nb-1
	if f < 1 {
		f = vb / va
		d1, d2 = nb-1, na-1
	}
	p := 2 * stats.FSF(f, d1, d2)
	if p > 1 {
		p = 1
	}
	return Result{Stat: f, DF: d1, DF2: d2, P: p}
}

// CorrelationZ tests H₀: ρ₁ = ρ₂ for two independent correlation estimates
// r1 (from n1 pairs) and r2 (from n2 pairs) via the Fisher z transform.
// This backs the difference-of-correlations Zig-Component.
func CorrelationZ(r1 float64, n1 int, r2 float64, n2 int) Result {
	if n1 < 4 || n2 < 4 || math.IsNaN(r1) || math.IsNaN(r2) {
		return Result{P: math.NaN()}
	}
	z1 := stats.FisherZ(r1)
	z2 := stats.FisherZ(r2)
	se := math.Sqrt(1/float64(n1-3) + 1/float64(n2-3))
	z := (z1 - z2) / se
	return Result{Stat: z, P: 2 * stats.NormalSF(math.Abs(z))}
}

// ChiSquareHomogeneity tests H₀: two categorical samples share the same
// distribution, given aligned frequency vectors (counts per category for
// each sample). Categories empty in both samples are ignored. This backs
// the categorical frequency-shift Zig-Component.
func ChiSquareHomogeneity(countsA, countsB []float64) Result {
	k := len(countsA)
	if k == 0 || len(countsB) != k {
		return Result{P: math.NaN()}
	}
	var totA, totB float64
	for i := 0; i < k; i++ {
		if countsA[i] < 0 || countsB[i] < 0 {
			return Result{P: math.NaN()}
		}
		totA += countsA[i]
		totB += countsB[i]
	}
	n := totA + totB
	if totA == 0 || totB == 0 {
		return Result{P: math.NaN()}
	}
	chi2 := 0.0
	cats := 0
	for i := 0; i < k; i++ {
		colTot := countsA[i] + countsB[i]
		if colTot == 0 {
			continue
		}
		cats++
		expA := totA * colTot / n
		expB := totB * colTot / n
		dA := countsA[i] - expA
		dB := countsB[i] - expB
		chi2 += dA*dA/expA + dB*dB/expB
	}
	if cats < 2 {
		return Result{P: math.NaN()}
	}
	df := float64(cats - 1)
	return Result{Stat: chi2, DF: df, P: stats.ChiSquaredSF(chi2, df)}
}

// MannWhitneyURanked tests H₀: the two samples come from the same
// distribution, using the rank-sum statistic with normal approximation,
// tie correction and a continuity correction of 0.5. It is the
// distribution-free alternative to WelchT, used when the engine is
// configured for robust mode. The rank sum, tie correction and group sizes
// it needs are all carried by the two-group Ranking r, so no sorting
// happens here. Degenerate inputs — groups smaller than two, NaN-bearing
// samples, or all-tied data whose variance collapses to zero — yield
// P = NaN: the test is untestable, not significant.
func MannWhitneyURanked(r stats.Ranking) Result {
	if r.NA < 2 || r.NB < 2 || r.HasNaN {
		return Result{P: math.NaN()}
	}
	fa, fb := float64(r.NA), float64(r.NB)
	u := r.RankSumA - fa*(fa+1)/2
	mu := fa * fb / 2
	n := fa + fb
	sigma2 := fa * fb / 12 * ((n + 1) - r.TieSum/(n*(n-1)))
	if sigma2 <= 0 {
		return Result{Stat: u, P: math.NaN()}
	}
	// Continuity correction of 0.5 toward the mean.
	d := u - mu
	var z float64
	switch {
	case d > 0:
		z = (d - 0.5) / math.Sqrt(sigma2)
	case d < 0:
		z = (d + 0.5) / math.Sqrt(sigma2)
	default:
		z = 0
	}
	return Result{Stat: u, P: 2 * stats.NormalSF(math.Abs(z))}
}
