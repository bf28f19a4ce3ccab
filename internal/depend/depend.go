package depend

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/frame"
	"repro/internal/par"
	"repro/internal/stats"
)

// Measure selects the numeric-numeric dependency statistic.
type Measure int

const (
	// AbsPearson uses |r|; the paper's default.
	AbsPearson Measure = iota
	// AbsSpearman uses the absolute rank correlation.
	AbsSpearman
	// NormalizedMI uses mutual information normalized to [0, 1].
	NormalizedMI
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case AbsPearson:
		return "abs-pearson"
	case AbsSpearman:
		return "abs-spearman"
	case NormalizedMI:
		return "normalized-mi"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Pairwise returns the dependency in [0, 1] between columns a and b of f,
// which must have the same length. NULL rows (in either column) are dropped
// pairwise. Degenerate cases return 0 — fewer than three complete cases, a
// constant column, a categorical column with one category, and a statistic
// that an infinite cell turns NaN — because every cell returns through
// absClamp: an uninformative column cannot anchor a tight view.
//
// For numeric pairs under AbsPearson it is the two-pass reference
// (stats.Pearson over the gathered complete cases) that the tests hold the
// matrix's block fold against; the matrix itself never calls it for them.
func Pairwise(a, b *frame.Column, m Measure) float64 {
	switch {
	case a.Kind() == frame.Numeric && b.Kind() == frame.Numeric:
		xs, ys := alignedNumeric(a, b)
		return numericDependency(xs, ys, m)
	case a.Kind() == frame.Categorical && b.Kind() == frame.Categorical:
		return cramersV(a, b)
	case a.Kind() == frame.Numeric:
		return correlationRatio(b, a)
	default:
		return correlationRatio(a, b)
	}
}

func numericDependency(xs, ys []float64, m Measure) float64 {
	if len(xs) < 3 {
		return 0
	}
	switch m {
	case AbsSpearman:
		return absClamp(stats.Spearman(xs, ys))
	case NormalizedMI:
		return absClamp(stats.NormalizedMI(xs, ys, 0))
	default:
		return absClamp(stats.Pearson(xs, ys))
	}
}

// alignedNumeric extracts pairwise complete cases from two numeric columns.
func alignedNumeric(a, b *frame.Column) (xs, ys []float64) {
	for i := 0; i < min(a.Len(), b.Len()); i++ {
		if a.IsNull(i) || b.IsNull(i) {
			continue
		}
		xs = append(xs, a.Float(i))
		ys = append(ys, b.Float(i))
	}
	return xs, ys
}

// cramersV computes Cramér's V between two categorical columns with
// bias-free plug-in estimation: V = sqrt(χ²/n / min(r-1, c-1)).
func cramersV(a, b *frame.Column) float64 {
	r := a.Cardinality()
	c := b.Cardinality()
	if r < 2 || c < 2 {
		return 0
	}
	table := make([]float64, r*c)
	rowTot := make([]float64, r)
	colTot := make([]float64, c)
	n := 0.0
	for i := 0; i < min(a.Len(), b.Len()); i++ {
		if a.IsNull(i) || b.IsNull(i) {
			continue
		}
		ai, bi := int(a.Code(i)), int(b.Code(i))
		table[ai*c+bi]++
		rowTot[ai]++
		colTot[bi]++
		n++
	}
	if n < 3 {
		return 0
	}
	chi2 := 0.0
	for i := 0; i < r; i++ {
		if rowTot[i] == 0 {
			continue
		}
		for j := 0; j < c; j++ {
			if colTot[j] == 0 {
				continue
			}
			expected := rowTot[i] * colTot[j] / n
			d := table[i*c+j] - expected
			chi2 += d * d / expected
		}
	}
	k := float64(min(r, c) - 1)
	return absClamp(math.Sqrt(chi2 / (n * k)))
}

// correlationRatio returns the dependency of a categorical × numeric pair:
// the correlation ratio η of num grouped by cat over the pair's complete
// cases, 0 below three cases or two categories.
func correlationRatio(cat, num *frame.Column) float64 {
	dep, _ := etaCell(cat.Codes(), num.Floats(), cat.Cardinality(), nil, 0, -1)
	return dep
}

// etaCell is the module's one η scan, shared by Pairwise and the Pearson
// fold: the dependency of categorical codes, over a card-entry dictionary,
// and numeric xs. It feeds a copy of from (nil: an empty accumulator, and
// lo must be 0) the pair's complete cases in rows [lo, n), in ascending
// order. When keepAt ≥ lo it also returns the accumulator after rows
// [0, keepAt), in Copy(0)'s canonical form, for a later build to resume
// from. EtaRowsFed counts the rows it feeds.
func etaCell(codes []int32, xs []float64, card int, from *stats.CorrelationRatio, lo, keepAt int) (float64, stats.CorrelationRatio) {
	n := min(len(codes), len(xs))
	etaRowsFed.Add(int64(n - lo))
	var acc stats.CorrelationRatio
	if from != nil {
		acc = from.Copy(card)
	} else {
		acc = stats.NewCorrelationRatio(card)
	}
	var kept stats.CorrelationRatio
	if keepAt >= lo {
		feedEta(&acc, codes[lo:keepAt], xs[lo:keepAt])
		kept, lo = acc.Copy(0), keepAt
	}
	feedEta(&acc, codes[lo:n], xs[lo:n])
	if card < 2 {
		return 0, kept
	}
	eta := acc.Eta()
	if eta.N < 3 {
		return 0, kept
	}
	return absClamp(eta.Value), kept
}

// feedEta adds the rows that are NULL on neither side to acc.
func feedEta(acc *stats.CorrelationRatio, codes []int32, xs []float64) {
	xs = xs[:len(codes)]
	for i, g := range codes {
		if v := xs[i]; g >= 0 && !math.IsNaN(v) {
			acc.Add(g, v)
		}
	}
}

// Matrix is a symmetric column-dependency matrix over a frame's columns.
type Matrix struct {
	names []string
	vals  []float64 // row-major, n×n
	n     int
}

// NewMatrix computes pairwise dependencies for all column pairs of f under
// measure m. The diagonal is 1.
func NewMatrix(f *frame.Frame, m Measure) *Matrix {
	return NewMatrixParallel(f, m, 1)
}

// NewMatrixParallel is NewMatrix with the upper triangle sharded across
// `workers` goroutines (the dominant preparation-stage cost: O(cols²)
// pairwise statistics over all rows). Each unordered pair is one task
// writing its two mirror cells, so the matrix is bit-for-bit identical for
// every worker count. workers < 1 means all CPUs; an effective count of 1
// computes inline with no goroutines and no pair-list allocation.
//
// Under AbsPearson the numeric pairs are the block fold of FoldMatrix, built
// cold. Under AbsSpearman and NormalizedMI a per-column precomputation phase
// runs first (one task per column, not per pair): validity bitmaps for
// NULL-bearing numeric columns and, under Spearman, the rank-once vectors
// with their centering moments. NULL-free Spearman pairs then reduce to one
// fused Σdxdy pass over the ranks; pairs with NULLs gather their complete
// cases into per-worker scratch by walking the AND of the validity bitmap
// words. Both shapes reproduce Pairwise bit-for-bit.
func NewMatrixParallel(f *frame.Frame, m Measure, workers int) *Matrix {
	workers = par.Workers(workers)
	if m == AbsPearson {
		mat, _ := FoldMatrix(f, workers, nil, -1)
		return mat
	}
	info := precomputeColumns(f, m, workers)
	scratches := make([]pairScratch, workers)
	return fillMatrix(f, workers, func(w, i, j int) float64 {
		return pairCell(f, m, info, &scratches[w], i, j)
	})
}

// fillMatrix builds f's matrix with a unit diagonal and each off-diagonal
// pair from cell(worker, i, j), one task per unordered pair.
func fillMatrix(f *frame.Frame, workers int, cell func(w, i, j int) float64) *Matrix {
	n := f.NumCols()
	mat := &Matrix{names: f.ColumnNames(), vals: make([]float64, n*n), n: n}
	for i := 0; i < n; i++ {
		mat.vals[i*n+i] = 1
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := cell(0, i, j)
				mat.vals[i*n+j] = v
				mat.vals[j*n+i] = v
			}
		}
		return mat
	}
	type pair struct{ i, j int }
	pairs := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	par.For(workers, len(pairs), func(w, k int) {
		p := pairs[k]
		v := cell(w, p.i, p.j)
		mat.vals[p.i*n+p.j] = v
		mat.vals[p.j*n+p.i] = v
	})
	return mat
}

// colStats is the per-column precomputation shared by every pair task of
// the Spearman and mutual-information matrices.
type colStats struct {
	numeric bool
	floats  []float64
	// valid holds the non-NULL bitmap words of a NULL-bearing numeric
	// column (bit i&63 of word i>>6 set when row i is non-NULL); nil when
	// the column has no NULLs.
	valid []uint64
	// ranks is the rank-once vector under AbsSpearman (NULL-free numeric
	// columns with ≥ 3 rows only — exactly the columns whose pairwise
	// complete cases equal the full column, so correlating precomputed
	// ranks is bit-identical to ranking the aligned pair; NULL-bearing
	// columns keep the per-pair fallback because their complete-case ranks
	// differ per partner). rankMean/rankSxx are its centering moments.
	ranks             []float64
	rankMean, rankSxx float64
}

// centeringMoments returns Mean(xs) and the sum of squared deviations
// accumulated exactly as Pearson's fused loop accumulates its sxx term, so
// a pair loop reusing them reproduces Pearson bit-for-bit.
func centeringMoments(xs []float64) (mean, sxx float64) {
	mean = stats.Mean(xs)
	for _, x := range xs {
		d := x - mean
		sxx += d * d
	}
	return mean, sxx
}

// precomputeColumns builds the per-column state, one task per column. NULL
// counts and validity bitmaps are read off the frame's chunk seals
// (Column.NullCount, frame.ColumnValidWords) instead of rescanning cells.
func precomputeColumns(f *frame.Frame, m Measure, workers int) []colStats {
	n := f.NumCols()
	info := make([]colStats, n)
	rankScratch := make([]stats.RankScratch, workers)
	idxScratch := make([][]int32, workers)
	par.For(workers, n, func(w, i int) {
		c := f.Col(i)
		if c.Kind() != frame.Numeric {
			return
		}
		cs := &info[i]
		cs.numeric = true
		cs.floats = c.Floats()
		if c.NullCount() > 0 {
			cs.valid = f.ColumnValidWords(i)
			return
		}
		if m == AbsSpearman && len(cs.floats) >= 3 {
			nRows := len(cs.floats)
			if cap(idxScratch[w]) < nRows {
				idxScratch[w] = make([]int32, nRows)
			}
			cs.ranks = stats.RanksIdxWith(&rankScratch[w], make([]float64, nRows), idxScratch[w][:nRows], cs.floats)
			cs.rankMean, cs.rankSxx = centeringMoments(cs.ranks)
		}
	})
	return info
}

// pairScratch holds one worker's complete-case gather buffers.
type pairScratch struct {
	xs, ys []float64
}

// pairCell computes one Spearman or mutual-information cell using whichever
// precomputed shape applies: rank-once vectors, bitmap-gathered complete
// cases, or the general Pairwise fallback for categorical/mixed pairs.
func pairCell(f *frame.Frame, m Measure, info []colStats, s *pairScratch, i, j int) float64 {
	a, b := &info[i], &info[j]
	if a.ranks != nil && b.ranks != nil {
		return absClamp(pearsonFused(a.ranks, b.ranks, a.rankMean, b.rankMean, a.rankSxx, b.rankSxx))
	}
	if a.numeric && b.numeric {
		if a.valid == nil && b.valid == nil {
			return numericDependency(a.floats, b.floats, m)
		}
		xs, ys := s.gatherAligned(a, b)
		return numericDependency(xs, ys, m)
	}
	return Pairwise(f.Col(i), f.Col(j), m)
}

// gatherAligned collects the pairwise complete cases of two numeric
// columns into the worker's scratch, walking the AND of the validity words
// one word at a time (bits.TrailingZeros64 over the joint mask) instead of
// testing every row. Rows come out in ascending order — the same order the
// per-row scan produced — so every downstream statistic is bit-identical.
func (s *pairScratch) gatherAligned(a, b *colStats) (xs, ys []float64) {
	n := min(len(a.floats), len(b.floats))
	if cap(s.xs) < n {
		s.xs = make([]float64, 0, n)
		s.ys = make([]float64, 0, n)
	}
	xs, ys = s.xs[:0], s.ys[:0]
	nw := (n + 63) / 64
	for k := 0; k < nw; k++ {
		w := jointWord(a.valid, k) & jointWord(b.valid, k)
		if rem := n - k<<6; rem < 64 {
			w &= (1 << uint(rem)) - 1
		}
		base := k << 6
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			xs = append(xs, a.floats[i])
			ys = append(ys, b.floats[i])
		}
	}
	s.xs, s.ys = xs, ys
	return xs, ys
}

// jointWord reads word k of a validity bitmap, treating a nil bitmap (a
// NULL-free column) as all-valid.
func jointWord(valid []uint64, k int) uint64 {
	if valid == nil {
		return ^uint64(0)
	}
	return valid[k]
}

// pearsonFused is Pearson with the per-series centering moments hoisted
// out: only the cross term Σdxdy is accumulated here. Because Pearson's
// loop carries sxy, sxx and syy as independent accumulators, the split
// changes no float operation and the result is bit-identical.
func pearsonFused(xs, ys []float64, mx, my, sxx, syy float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	var sxy float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	return stats.FinishPearson(sxy, sxx, syy)
}

// absClamp maps a raw statistic — a correlation, Cramér's V or η — to the
// dependency S: |v|, with NaN → 0 and anything above 1 → 1. It is the one
// degenerate-case rule of the matrix: every cell returns through it, so a
// constant column, too few cases or an infinite cell give 0, never a NaN
// that the clustering stage would reject.
func absClamp(v float64) float64 {
	v = math.Abs(v)
	if math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// MatrixFromValues wraps a precomputed symmetric matrix; used by tests and
// the planted-data experiments.
func MatrixFromValues(names []string, vals []float64) (*Matrix, error) {
	n := len(names)
	if len(vals) != n*n {
		return nil, fmt.Errorf("depend: %d values for %d names", len(vals), n)
	}
	v := make([]float64, len(vals))
	copy(v, vals)
	return &Matrix{names: names, vals: v, n: n}, nil
}

// Len returns the number of columns covered.
func (m *Matrix) Len() int { return m.n }

// Names returns the column names in matrix order.
func (m *Matrix) Names() []string { return m.names }

// At returns the dependency between columns i and j.
func (m *Matrix) At(i, j int) float64 { return m.vals[i*m.n+j] }

// MinPairwise returns the minimum dependency over all unordered pairs in the
// index set idx — the tightness of the candidate view (Equation 2). A set
// with fewer than two columns has tightness 1 by convention (a singleton
// view is trivially coherent).
func (m *Matrix) MinPairwise(idx []int) float64 {
	if len(idx) < 2 {
		return 1
	}
	min := math.Inf(1)
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			v := m.At(idx[a], idx[b])
			if v < min {
				min = v
			}
		}
	}
	return min
}

// Distances converts dependencies to dissimilarities (1 - S) for the
// clustering stage.
func (m *Matrix) Distances() []float64 {
	d := make([]float64, len(m.vals))
	for i, v := range m.vals {
		d[i] = 1 - v
	}
	for i := 0; i < m.n; i++ {
		d[i*m.n+i] = 0
	}
	return d
}
