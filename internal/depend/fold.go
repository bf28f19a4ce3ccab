package depend

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/frame"
	"repro/internal/par"
)

// The Pearson matrix is a left fold over fixed 64-row blocks. Each numeric
// column keeps a running (n, mean, M2) over its non-NULL rows and each
// numeric pair a running co-moment over its complete cases; a block's own
// moments are computed from its rows alone and merged into the running
// state with Chan et al.'s parallel update. The block is one validity word
// and does not depend on the frame's chunk capacity (a multiple of 64), and
// the fold runs strictly left to right, so the state at any chunk boundary
// is a pure function of the rows before it: a build resumed from a
// FoldState gives the same bits as a cold build, for every chunk layout and
// worker count.

// foldBlock is the fold's canonical block size: one validity word.
const foldBlock = 64

// rowsFolded counts folded rows process-wide; see RowsFolded.
var rowsFolded atomic.Int64

// RowsFolded returns the number of rows every numeric pair of a Pearson
// matrix build has folded, summed over the builds of this process. It only
// grows, in the style of frame.ChunkScans: a cold build of an n-row frame
// adds n, and a build resumed from a FoldState at row b adds n−b. Tests and
// benchmarks assert deltas around an operation.
func RowsFolded() int64 { return rowsFolded.Load() }

// moments is a running (n, mean, M2) over one series. The mean is carried
// as the unevaluated sum hi + lo: a block's mean is its first value plus
// the mean offset of the rest, and a merge keeps its rounding error in lo.
// A column riding on a large offset (1e9 plus noise) thus never drifts its
// running mean by an ulp of the offset per block, which would skew every
// later mean shift and, through them, the co-moments.
type moments struct{ n, hi, lo, m2 float64 }

// center returns the mean rounded to one float.
func (m moments) center() float64 { return m.hi + m.lo }

// merge folds block b into the running state a and also returns the
// update's mean shift d = b.mean − a.mean and cross factor f = nₐ·n_b/n,
// which the co-moment update reuses. An empty a is replaced by b.
func (a moments) merge(b moments) (m moments, d, f float64) {
	if a.n == 0 {
		return b, 0, 0
	}
	n := a.n + b.n
	f = a.n * b.n / n
	d = (b.hi - a.hi) + (b.lo - a.lo)
	// float64() forbids fusing the products into FMAs, so every call site
	// rounds identically.
	hi, lo := twoSum(a.hi, a.lo+float64(d*(b.n/n)))
	return moments{n: n, hi: hi, lo: lo, m2: a.m2 + b.m2 + float64(float64(d*d)*f)}, d, f
}

// twoSum returns s = a+b rounded and the rounding error e, so that
// s + e = a + b exactly (Knuth).
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	return s, (a - (s - bb)) + (b - bb)
}

// mergeCo is Chan et al.'s co-moment update: c and cb are the running and
// block co-moments, dx and dy the two axes' mean shifts, f the cross factor.
func mergeCo(c, cb, dx, dy, f float64) float64 {
	return c + cb + float64(float64(dx*dy)*f)
}

// pairMoments is one numeric pair's running state over its complete cases.
// While neither column has a NULL, x and y equal the columns' own running
// moments bit for bit, because both are folded from the same block moments
// by the same merge.
type pairMoments struct {
	x, y moments
	c    float64 // Σ(x−x̄)(y−ȳ)
}

// merge folds block b into the running pair state p.
func (p pairMoments) merge(b pairMoments) pairMoments {
	if p.x.n == 0 {
		return b
	}
	x, dx, f := p.x.merge(b.x)
	y, dy, _ := p.y.merge(b.y)
	return pairMoments{x: x, y: y, c: mergeCo(p.c, b.c, dx, dy, f)}
}

// dependency maps the pair's state to |r|: 0 below three complete cases,
// for a constant side (M2 = 0) and for a NaN (a ±Inf cell), clamped into
// [0, 1].
func (p pairMoments) dependency() float64 {
	if p.x.n < 3 || p.x.m2 == 0 || p.y.m2 == 0 {
		return 0
	}
	return absClamp(p.c / math.Sqrt(p.x.m2*p.y.m2))
}

// spanMoments returns the moments of a run of rows, shifted by the first
// value: a large common offset cancels before summation, and a constant
// run has exactly 0 as M2.
func spanMoments(xs []float64) moments {
	x0 := xs[0]
	var s float64
	for _, x := range xs {
		s += x - x0
	}
	n := float64(len(xs))
	r := s / n
	var m2 float64
	for _, x := range xs {
		d := (x - x0) - r
		m2 += d * d
	}
	return moments{n: n, hi: x0, lo: r, m2: m2}
}

// maskedMoments is spanMoments over the rows of a block whose bits are set
// in w (bit i is xs[i]).
func maskedMoments(xs []float64, w uint64) moments {
	x0 := xs[bits.TrailingZeros64(w)]
	var s float64
	for m := w; m != 0; m &= m - 1 {
		s += xs[bits.TrailingZeros64(m)] - x0
	}
	n := float64(bits.OnesCount64(w))
	r := s / n
	var m2 float64
	for m := w; m != 0; m &= m - 1 {
		d := (xs[bits.TrailingZeros64(m)] - x0) - r
		m2 += d * d
	}
	return moments{n: n, hi: x0, lo: r, m2: m2}
}

// spanCo returns Σ(x−mx)(y−my) over a run of rows, with four accumulators
// so the additions do not wait on each other.
func spanCo(xs, ys []float64, mx, my float64) float64 {
	ys = ys[:len(xs)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		x, y := xs[i:i+4:i+4], ys[i:i+4:i+4]
		s0 += (x[0] - mx) * (y[0] - my)
		s1 += (x[1] - mx) * (y[1] - my)
		s2 += (x[2] - mx) * (y[2] - my)
		s3 += (x[3] - mx) * (y[3] - my)
	}
	for ; i < len(xs); i++ {
		s0 += (xs[i] - mx) * (ys[i] - my)
	}
	return (s0 + s1) + (s2 + s3)
}

// maskedPair returns the block moments of a pair over the rows set in w.
func maskedPair(xs, ys []float64, w uint64) pairMoments {
	p := pairMoments{x: maskedMoments(xs, w), y: maskedMoments(ys, w)}
	mx, my := p.x.center(), p.y.center()
	for m := w; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		p.c += (xs[i] - mx) * (ys[i] - my)
	}
	return p
}

// FoldState is the dependency fold's state at a block boundary: the running
// moments of every numeric column and numeric pair over the rows before it.
// It is immutable once returned, so one state may seed any number of
// builds.
type FoldState struct {
	rows  int           // leading rows folded, a multiple of 64
	num   []int         // frame indices of the numeric columns
	cols  []moments     // parallel to num, over each column's non-NULL rows
	pairs []pairMoments // numeric pairs (a < b in num order), row-major
}

// Size returns the state's approximate resident bytes, for cache charging.
func (s *FoldState) Size() int64 {
	return 80 + int64(len(s.num))*8 + int64(len(s.cols))*32 + int64(len(s.pairs))*72
}

// pairIndex returns the slot of numeric pair (a, b), a < b, among k columns.
func pairIndex(a, b, k int) int { return a*k - a*(a+1)/2 + b - a - 1 }

// colFold is one numeric column's share of a fold: its cells, validity, the
// moments of each folded block with the merge's mean shift and cross factor
// (read by the pair fast path), and its running moments at keepAt and at
// the end.
type colFold struct {
	xs     []float64
	valid  []uint64 // nil when the column has no NULL
	blocks []colBlock
	kept   moments
	end    moments
}

// colBlock is one block of one column: its moments over the column's
// non-NULL rows (n = 0 when there are none) and the merge's d and f.
type colBlock struct {
	m    moments
	d, f float64
}

// FoldMatrix computes f's AbsPearson dependency matrix as a left fold over
// 64-row blocks, resuming from the state from (nil folds from row 0), and
// returns alongside the matrix the state at row keepAt — nil when keepAt is
// not a block boundary between the rows from covers and f.NumRows(), or f
// has fewer than two numeric columns. A state that does not fit f (other
// numeric column positions, or more rows than f) is ignored and the build
// is cold; the caller is responsible for from describing f's own leading
// rows, which a prefix commitment over frame.ChunkFingerprints establishes.
//
// Only numeric pairs fold: a pair with a categorical column is Pairwise's
// full scan on every build. The matrix and the state are bit-for-bit
// identical for every worker count, every chunk layout and every resume
// point.
func FoldMatrix(f *frame.Frame, workers int, from *FoldState, keepAt int) (*Matrix, *FoldState) {
	workers = par.Workers(workers)
	n := f.NumRows()
	var num []int
	pos := make([]int, f.NumCols()) // position in num
	for i, c := range f.Columns() {
		if c.Kind() == frame.Numeric {
			pos[i] = len(num)
			num = append(num, i)
		}
	}
	folds := len(num) > 1
	if !folds {
		num = nil
	}
	if from != nil && !from.fits(num, n) {
		from = nil
	}
	start := 0
	if from != nil {
		start = from.rows
	}
	if folds {
		rowsFolded.Add(int64(n - start))
	}
	// A state kept where the build resumes is the seed itself.
	reuse := from != nil && keepAt == start
	if reuse || !folds || keepAt <= 0 || keepAt%foldBlock != 0 || keepAt < start || keepAt > n {
		keepAt = -1
	}

	// Phase 1, one task per numeric column: block moments and the column's
	// running state.
	k0 := start / foldBlock
	nBlocks := (n + foldBlock - 1) / foldBlock
	cols := make([]colFold, len(num))
	blockBuf := make([]colBlock, len(num)*(nBlocks-k0))
	par.For(workers, len(num), func(_, a int) {
		cf := &cols[a]
		cf.xs = f.Col(num[a]).Floats()
		cf.blocks = blockBuf[a*(nBlocks-k0) : (a+1)*(nBlocks-k0)]
		if f.ColumnSketch(num[a]).Nulls > 0 {
			cf.valid = f.ColumnValidWords(num[a])
		}
		var st moments
		if from != nil {
			st = from.cols[a]
		}
		for k := k0; k < nBlocks; k++ {
			lo, hi := k*foldBlock, min((k+1)*foldBlock, n)
			full := blockMask(hi - lo)
			w := full & jointWord(cf.valid, k)
			b := &cf.blocks[k-k0]
			switch {
			case w == full:
				b.m = spanMoments(cf.xs[lo:hi])
			case w != 0:
				b.m = maskedMoments(cf.xs[lo:hi], w)
			}
			if b.m.n > 0 {
				st, b.d, b.f = st.merge(b.m)
			}
			if hi == keepAt {
				cf.kept = st
			}
		}
		cf.end = st
	})

	// Phase 2, one task per pair.
	var kept *FoldState
	if keepAt >= 0 {
		kept = &FoldState{rows: keepAt, num: num,
			cols:  make([]moments, len(num)),
			pairs: make([]pairMoments, len(num)*(len(num)-1)/2)}
		for a := range cols {
			kept.cols[a] = cols[a].kept
		}
	}
	mat := fillMatrix(f, workers, func(_, i, j int) float64 {
		if f.Col(i).Kind() != frame.Numeric || f.Col(j).Kind() != frame.Numeric {
			return Pairwise(f.Col(i), f.Col(j), AbsPearson)
		}
		p := pairIndex(pos[i], pos[j], len(num))
		var st pairMoments
		if from != nil {
			st = from.pairs[p]
		}
		end, at := foldPair(&cols[pos[i]], &cols[pos[j]], st, k0, nBlocks, n, keepAt)
		if kept != nil {
			kept.pairs[p] = at
		}
		return end.dependency()
	})
	if reuse {
		return mat, from
	}
	return mat, kept
}

// fits reports whether the state can seed a fold of an n-row frame whose
// numeric columns are num.
func (s *FoldState) fits(num []int, n int) bool {
	return s.rows <= n && s.rows%foldBlock == 0 && slices.Equal(s.num, num)
}

// foldPair folds numeric pair (a, b) from state st over blocks [k0, nBlocks)
// and returns its state at the end and at keepAt. A pair of NULL-free
// columns carries only its co-moment and reads both axes and every merge's
// mean shifts off the column folds; any other pair folds the full tuple
// over its complete cases, merging both axes itself. Its blocks with no
// NULL in either column take the same block moments, so the two shapes
// agree bit for bit wherever both apply — which is what lets a column gain
// its first NULL in an append after the state was kept. The NULL-free path
// exists for speed: folding the full tuple for every pair made a cold
// 4,000×128 characterize (BenchmarkCharacterizeParallel, parallelism 1 and
// 2) about 25% slower, merging two axes per pair and block where this path
// merges none.
func foldPair(a, b *colFold, st pairMoments, k0, nBlocks, n, keepAt int) (end, kept pairMoments) {
	if a.valid == nil && b.valid == nil {
		c := st.c
		for k := k0; k < nBlocks; k++ {
			lo, hi := k*foldBlock, min((k+1)*foldBlock, n)
			ba, bb := &a.blocks[k-k0], &b.blocks[k-k0]
			cb := spanCo(a.xs[lo:hi], b.xs[lo:hi], ba.m.center(), bb.m.center())
			if lo == 0 {
				c = cb
			} else {
				c = mergeCo(c, cb, ba.d, bb.d, ba.f)
			}
			if hi == keepAt {
				kept = pairMoments{x: a.kept, y: b.kept, c: c}
			}
		}
		return pairMoments{x: a.end, y: b.end, c: c}, kept
	}
	for k := k0; k < nBlocks; k++ {
		lo, hi := k*foldBlock, min((k+1)*foldBlock, n)
		full := blockMask(hi - lo)
		switch w := full & jointWord(a.valid, k) & jointWord(b.valid, k); w {
		case 0:
		case full:
			ma, mb := a.blocks[k-k0].m, b.blocks[k-k0].m
			st = st.merge(pairMoments{x: ma, y: mb, c: spanCo(a.xs[lo:hi], b.xs[lo:hi], ma.center(), mb.center())})
		default:
			st = st.merge(maskedPair(a.xs[lo:hi], b.xs[lo:hi], w))
		}
		if hi == keepAt {
			kept = st
		}
	}
	return st, kept
}

// blockMask returns the mask of a block of rows rows (≤ 64).
func blockMask(rows int) uint64 {
	if rows >= foldBlock {
		return ^uint64(0)
	}
	return 1<<uint(rows) - 1
}
