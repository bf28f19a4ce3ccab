package stats

import "math"

// Pearson returns the Pearson product-moment correlation coefficient of two
// equal-length series. It returns NaN for fewer than two pairs, mismatched
// lengths, or when either series is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return FinishPearson(sxy, sxx, syy)
}

// FinishPearson finishes a Pearson correlation from the centered sums
// Σdxdy, Σdx² and Σdy² of its second pass: NaN when either series is
// constant, clamped into [-1, 1] against rounding excursions otherwise.
func FinishPearson(sxy, sxx, syy float64) float64 {
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// Spearman returns the Spearman rank correlation coefficient, i.e. the
// Pearson correlation of the fractional ranks. It ranks both series on
// every call; callers correlating many pairs over the same columns should
// rank each column once and use SpearmanRanked.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return SpearmanRanked(Ranks(xs), Ranks(ys))
}

// FisherZ transforms a correlation coefficient to the z scale
// (atanh), on which differences are approximately normal. Inputs at ±1 are
// nudged inside the open interval to keep the transform finite.
func FisherZ(r float64) float64 {
	const eps = 1e-12
	if r >= 1 {
		r = 1 - eps
	} else if r <= -1 {
		r = -1 + eps
	}
	return math.Atanh(r)
}

// CorrelationMatrix returns the M×M Pearson correlation matrix (row-major)
// of the given column series. Cells involving a constant column are NaN off
// the diagonal and 1 on it.
func CorrelationMatrix(cols [][]float64) []float64 {
	m := len(cols)
	out := make([]float64, m*m)
	for i := 0; i < m; i++ {
		out[i*m+i] = 1
		for j := i + 1; j < m; j++ {
			r := Pearson(cols[i], cols[j])
			out[i*m+j] = r
			out[j*m+i] = r
		}
	}
	return out
}
