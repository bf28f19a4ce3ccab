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

// CorrelationRatio accumulates the correlation ratio η of a numeric series
// grouped by category: per-category sums and counts, plus Welford's running
// mean and M2 over every case. It is the one η of the module — the
// dependency matrix's categorical × numeric cells and the extended
// separation component both feed it complete cases in ascending row order
// — so the two agree bit for bit on the same cases.
type CorrelationRatio struct {
	sum, count []float64 // per category
	n          int
	mean, m2   float64
}

// NewCorrelationRatio returns an empty accumulator over k categories.
func NewCorrelationRatio(k int) CorrelationRatio {
	var c CorrelationRatio
	c.makeCategories(k)
	return c
}

// Copy returns an independent copy of the accumulator over k categories,
// or through its last non-empty category when that is further: categories
// past its own start empty, and empty ones past k are dropped. Eta skips
// empty categories, so the copy finishes to the same bits, and a copy
// widened to a grown dictionary and fed the rows after its own holds the
// bits of one accumulator fed every row. Copy(0) is the canonical form: it
// depends only on the cases fed, not on the dictionary size.
func (c *CorrelationRatio) Copy(k int) CorrelationRatio {
	used := len(c.count)
	for used > 0 && c.count[used-1] == 0 {
		used--
	}
	out := CorrelationRatio{n: c.n, mean: c.mean, m2: c.m2}
	out.makeCategories(max(k, used))
	copy(out.sum, c.sum[:used])
	copy(out.count, c.count[:used])
	return out
}

// makeCategories gives c zeroed per-category slices over k categories, in
// one allocation.
func (c *CorrelationRatio) makeCategories(k int) {
	buf := make([]float64, 2*k)
	c.sum, c.count = buf[:k:k], buf[k:]
}

// State returns the accumulator's raw state: the case count, Welford's
// running mean and M2, and the per-category sums and counts. The slices are
// the accumulator's own; callers must not modify them.
func (c *CorrelationRatio) State() (n int, mean, m2 float64, sum, count []float64) {
	return c.n, c.mean, c.m2, c.sum, c.count
}

// Size returns the accumulator's approximate resident bytes.
func (c *CorrelationRatio) Size() int64 { return 72 + 16*int64(len(c.sum)) }

// Add folds in one complete case: category g, in [0, k), with value v.
func (c *CorrelationRatio) Add(g int32, v float64) {
	c.sum[g] += v
	c.count[g]++
	c.n++
	d := v - c.mean
	c.mean += d / float64(c.n)
	c.m2 += d * (v - c.mean)
}

// Eta is a correlation ratio with the cases and categories it covers.
type Eta struct {
	// Value is η in [0, 1]: the square root of the between-category share
	// of the values' sum of squares. It is NaN below two cases and for
	// constant values, and may be NaN when a value is infinite or its
	// square overflows.
	Value float64
	// N counts the cases; Groups counts the categories holding any.
	N, Groups int
}

// Eta finishes the accumulator. The between-category sum runs over the
// categories in ascending order; the total sum of squares is n−1 times the
// sample variance, rounded as that product.
func (c *CorrelationRatio) Eta() Eta {
	e := Eta{Value: math.NaN(), N: c.n}
	var ssBetween float64
	for g, n := range c.count {
		if n == 0 {
			continue
		}
		e.Groups++
		d := c.sum[g]/n - c.mean
		ssBetween += n * d * d
	}
	if c.n < 2 {
		return e
	}
	ssTotal := c.m2 / float64(c.n-1) * float64(c.n-1)
	if ssTotal <= 0 {
		return e
	}
	e.Value = math.Sqrt(ssBetween / ssTotal)
	if e.Value > 1 {
		e.Value = 1
	}
	return e
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
