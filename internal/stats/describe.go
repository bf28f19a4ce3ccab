// Package stats provides the numerical statistics substrate for the Ziggy
// reproduction: descriptive statistics, correlation measures, ranks,
// histograms, special functions, and the distribution CDFs required by the
// hypothesis tests of package hypo.
//
// Functions operate on plain []float64 slices and in general assume no
// NaNs; callers (package frame) strip NULLs before the values reach this
// layer. The exception is the two-group Ranking constructors, which detect
// NaN-bearing input and mark it untestable (HasNaN) so the robust pipeline
// degrades gracefully instead of ranking garbage. Sample (not population)
// estimators are used throughout, matching the effect-size literature the
// paper builds on (Hedges & Olkin 1985).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator), or NaN
// for fewer than two values. It uses the two-pass algorithm for numerical
// stability.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		ss += d * d
		comp += d
	}
	// The compensation term corrects for rounding in the mean.
	n := float64(len(xs))
	return (ss - comp*comp/n) / (n - 1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the extrema, or (NaN, NaN) for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-th sample quantile (q in [0,1]) of sorted data
// using linear interpolation (type-7, the R default). It panics if sorted
// is empty or q is outside [0,1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile q outside [0,1]")
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the sample median, sorting a copy of xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return Quantile(s, 0.5)
}

// Moments accumulates streaming mean/variance via Welford's algorithm. It
// lets the preparation stage compute statistics in one pass without
// materializing both column splits.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// N returns the count of values seen.
func (m *Moments) N() int { return m.n }

// Mean returns the running mean (NaN when empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the running unbiased sample variance (NaN below 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return math.NaN()
	}
	return m.m2 / float64(m.n-1)
}

// Ranks returns the fractional ranks of xs (average ranks for ties),
// 1-based, as used by Spearman correlation and the Mann-Whitney test.
func Ranks(xs []float64) []float64 {
	return RanksIdxWith(nil, make([]float64, len(xs)), make([]int32, len(xs)), xs)
}

// RanksIdxWith writes the ranks of xs into dst using idx as index scratch
// and s as kernel scratch (nil allocates); dst and idx must have length
// len(xs), and dst is returned for convenience. Callers ranking many
// columns in a loop — the Spearman dependency matrix's rank-once phase —
// reuse one scratch per worker instead of allocating radix buffers per
// column, so a warmed scratch ranks without allocating. Tie groups are
// found by value equality after the sort, which makes the ranks identical
// for every kernel. The ranking pass is metered by RankOps like every
// other.
func RanksIdxWith(s *RankScratch, dst []float64, idx []int32, xs []float64) []float64 {
	rankOps.Add(1)
	n := len(xs)
	identity(idx)
	k, lo, span := chooseKernel(xs, idx)
	sortPermKernel(s, idx, xs, k, lo, span)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			dst[idx[k]] = avg
		}
		i = j + 1
	}
	return dst
}
