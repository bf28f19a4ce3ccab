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

// Summary is what the moment-based Zig-Components read of one side of a
// split: the count, the mean and the unbiased sample variance. Mean is NaN
// for N = 0 and Var for N < 2. The engine fills it by walking a column's
// rows in place; Summarize fills it from a slice, and both visit the
// values in the same order and finish through FinishVariance, so the two
// agree bit for bit.
type Summary struct {
	N         int
	Mean, Var float64
}

// Summarize returns the Summary of xs: the mean in one pass and the
// variance in a second, compensated pass (FinishVariance).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), Var: math.NaN()}
	if len(xs) < 2 {
		return s
	}
	var ss, comp float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
		comp += d
	}
	s.Var = FinishVariance(ss, comp, len(xs))
	return s
}

// FinishVariance finishes the two-pass variance of n ≥ 2 values from the
// second pass's sums of squared and of plain deviations from the mean; the
// compensation term comp corrects for rounding in the mean.
func FinishVariance(ss, comp float64, n int) float64 {
	fn := float64(n)
	return (ss - comp*comp/fn) / (fn - 1)
}

// Variance returns the unbiased sample variance (n-1 denominator), or NaN
// for fewer than two values. It uses the two-pass algorithm for numerical
// stability.
func Variance(xs []float64) float64 {
	return Summarize(xs).Var
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

// Ranks returns the fractional ranks of xs (average ranks for ties),
// 1-based, as used by Spearman correlation and the Mann-Whitney test.
func Ranks(xs []float64) []float64 {
	return RanksIdxWith(nil, make([]float64, len(xs)), make([]int32, len(xs)), xs)
}

// RanksIdxWith writes the ranks of xs into dst using idx as index scratch
// and s as radix scratch (nil allocates); dst and idx must have length
// len(xs), and dst is returned for convenience. Callers ranking many
// columns in a loop — the Spearman dependency matrix's rank-once phase —
// reuse one scratch per worker instead of allocating radix buffers per
// column, so a warmed scratch ranks without allocating. Tie groups are
// found by value equality after the sort, so −0 and +0 share a rank. The
// ranking pass is metered by RankOps like every other.
func RanksIdxWith(s *RankScratch, dst []float64, idx []int32, xs []float64) []float64 {
	rankOps.Add(1)
	n := len(xs)
	for i := range idx {
		idx[i] = int32(i)
	}
	radixSortPerm(s, idx, xs)
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
