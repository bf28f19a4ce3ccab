package core

import (
	"math"
	"math/bits"

	"repro/internal/frame"
	"repro/internal/stats"
)

// partition is one query's split of a table's rows into the selection
// (in) and its complement (out), as two word masks in the frame.Bitmap
// layout: row r at bit r&63 of word r>>6. Both are restricted to the
// approximate sample, when there is one, and clear past the last row, so
// every per-query statistic is a walk of side ∧ frame.ColumnValidWords —
// nothing is copied. The numeric columns are walked in blocks of up to
// blockLanes columns that share one validity mask (block.walk): one bit
// scan of each side finds a row for every lane, the first pass also marks
// the smaller side's rank positions on an exact ranked split, and each
// column keeps its sides' means and sums of squared deviations, so a pair
// of columns with one mask correlates in one co-moment pass
// (correlateKept); pairs whose NULLs differ take correlatePair's two. A
// column with NULLs of its own is a block of one, walked by summarizePair.
// The walks serve both sides in one loop over the words, a word's in-bits
// beside its out-bits, so the sides' add chains overlap. Every side of
// every column still visits its rows in ascending order, the order a
// copied split would hold them, so each side's sums are the slice
// functions' sums bit for bit.
type partition struct {
	in, out []uint64
}

// newPartition splits the n rows of sel's table, keeping only the rows of
// the approximate sample when it is non-nil.
func newPartition(n int, sel, sampled *frame.Bitmap) partition {
	nw := sel.WordCount()
	p := partition{in: make([]uint64, nw), out: make([]uint64, nw)}
	for wi := 0; wi < nw; wi++ {
		mask := ^uint64(0)
		if rem := n - wi<<6; rem < 64 {
			mask = 1<<uint(rem) - 1
		}
		if sampled != nil {
			mask &= sampled.WordAt(wi)
		}
		w := sel.WordAt(wi)
		p.in[wi], p.out[wi] = w&mask, ^w&mask
	}
	return p
}

// countRows counts the rows of mask ∧ valid by popcount, reading no cell.
// A nil valid counts every row of mask.
func countRows(mask, valid []uint64) int {
	n := 0
	for wi, w := range mask {
		if valid != nil {
			w &= valid[wi]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// blockLanes is the most numeric columns one block walk serves: four
// columns on each of two sides keep eight add chains in flight.
const blockLanes = 4

// moments is Summarize's two passes over one side of a column: the count,
// the mean, and the second pass's raw sums of squared and of plain
// deviations from the mean. ss is also the Σdx² a Pearson correlation over
// the same rows adds, so a pair of columns with one validity mask reuses
// it (correlateKept).
type moments struct {
	n              int
	mean, ss, comp float64
}

// summary finishes m into Summarize's Summary: a NaN mean for no rows and
// a NaN variance for fewer than two.
func (m moments) summary() stats.Summary {
	s := stats.Summary{N: m.n, Mean: m.mean, Var: math.NaN()}
	if m.n >= 2 {
		s.Var = stats.FinishVariance(m.ss, m.comp, m.n)
	}
	return s
}

// block is up to blockLanes numeric columns that share one validity mask,
// walked together: each row of a side is found once, by one bit scan of
// the side's mask, for every lane. Lanes past the last hold its data
// again, so the walk runs its full width on any block; their results are
// dropped.
type block struct {
	lanes int
	xs    [blockLanes][]float64
	// pos and marks, set for an exact split of ranked columns, are each
	// lane's RankIndex.Pos and its order-space bitmap of the smaller
	// side's positions (stats.RankIndex.RankMarked), which the first pass
	// fills.
	pos   [blockLanes][]int32
	marks [blockLanes][]uint64
}

// fill sets the block's lanes to xs (1 to blockLanes columns), repeating
// the last over the unused lanes, and clears any marking.
func (k *block) fill(xs ...[]float64) {
	k.lanes = len(xs)
	for l := range k.xs {
		k.xs[l] = xs[min(l, len(xs)-1)]
		k.pos[l], k.marks[l] = nil, nil
	}
}

// walk returns every lane's moments over the na rows of a ∧ valid and the
// nb rows of b ∧ valid, in Summarize's two passes: the sums, then the
// deviations from the means. Each lane adds each side's rows in ascending
// order, so each lane's moments are Summarize's of that side bit for bit;
// the lanes and sides only share the bit scans. The first pass runs both
// sides in one loop, so their add chains overlap. When the block has
// marks, the first pass also marks the positions of side a's rows, and
// walk returns each lane's position sum.
func (k *block) walk(a, b, valid []uint64, na, nb int) (ma, mb [blockLanes]moments, sums [blockLanes]int64) {
	x0, x1, x2, x3 := k.lanesOf()
	a, b = a[:len(valid)], b[:len(valid)]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	for wi, v := range valid {
		base := wi << 6
		wa, wb := a[wi]&v, b[wi]&v
		if k.marks[0] != nil {
			k.mark(&sums, base, wa)
		}
		for ; wa != 0 && wb != 0; wa, wb = wa&(wa-1), wb&(wb-1) {
			i, o := base+bits.TrailingZeros64(wa), base+bits.TrailingZeros64(wb)
			a0 += x0[i]
			a1 += x1[i]
			a2 += x2[i]
			a3 += x3[i]
			b0 += x0[o]
			b1 += x1[o]
			b2 += x2[o]
			b3 += x3[o]
		}
		for ; wa != 0; wa &= wa - 1 {
			i := base + bits.TrailingZeros64(wa)
			a0 += x0[i]
			a1 += x1[i]
			a2 += x2[i]
			a3 += x3[i]
		}
		for ; wb != 0; wb &= wb - 1 {
			o := base + bits.TrailingZeros64(wb)
			b0 += x0[o]
			b1 += x1[o]
			b2 += x2[o]
			b3 += x3[o]
		}
	}
	fa, fb := float64(na), float64(nb)
	ma = [blockLanes]moments{{na, a0 / fa, 0, 0}, {na, a1 / fa, 0, 0}, {na, a2 / fa, 0, 0}, {na, a3 / fa, 0, 0}}
	mb = [blockLanes]moments{{nb, b0 / fb, 0, 0}, {nb, b1 / fb, 0, 0}, {nb, b2 / fb, 0, 0}, {nb, b3 / fb, 0, 0}}
	if na < 2 && nb < 2 {
		return ma, mb, sums
	}
	k.deviations(&ma, a, valid)
	k.deviations(&mb, b, valid)
	return ma, mb, sums
}

// deviations runs the second pass over the rows of side ∧ valid: each
// lane's sums of squared and of plain deviations from its mean in m.
// Walking one side at a time keeps its eight sums in registers; both
// sides' sixteen would spill.
func (k *block) deviations(m *[blockLanes]moments, side, valid []uint64) {
	x0, x1, x2, x3 := k.lanesOf()
	side = side[:len(valid)]
	m0, m1, m2, m3 := m[0].mean, m[1].mean, m[2].mean, m[3].mean
	var s0, s1, s2, s3, c0, c1, c2, c3 float64
	for wi, v := range valid {
		base := wi << 6
		for w := side[wi] & v; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			d0, d1, d2, d3 := x0[i]-m0, x1[i]-m1, x2[i]-m2, x3[i]-m3
			s0 += d0 * d0
			c0 += d0
			s1 += d1 * d1
			c1 += d1
			s2 += d2 * d2
			c2 += d2
			s3 += d3 * d3
			c3 += d3
		}
	}
	m[0].ss, m[0].comp = s0, c0
	m[1].ss, m[1].comp = s1, c1
	m[2].ss, m[2].comp = s2, c2
	m[3].ss, m[3].comp = s3, c3
}

// lanesOf returns the lanes' columns resliced to one length, so that one
// bounds check of a row serves all four.
func (k *block) lanesOf() (x0, x1, x2, x3 []float64) {
	x0 = k.xs[0]
	return x0, k.xs[1][:len(x0)], k.xs[2][:len(x0)], k.xs[3][:len(x0)]
}

// summarizePair is a one-column block's walk: the moments of xs over the
// nIn rows of in ∧ valid and the nOut rows of out ∧ valid, in Summarize's
// two passes. Both sides walk each word in one loop, so their two add
// chains overlap instead of running back to back; each side still adds its
// own rows in ascending order, so each side's moments are Summarize's bit
// for bit. A lone column walks twice as fast here as in a block's padded
// lanes.
func summarizePair(xs []float64, in, out, valid []uint64, nIn, nOut int) (mIn, mOut moments) {
	var sumIn, sumOut float64
	for wi, v := range valid {
		base := wi << 6
		wIn, wOut := in[wi]&v, out[wi]&v
		for ; wIn != 0 && wOut != 0; wIn, wOut = wIn&(wIn-1), wOut&(wOut-1) {
			sumIn += xs[base+bits.TrailingZeros64(wIn)]
			sumOut += xs[base+bits.TrailingZeros64(wOut)]
		}
		for ; wIn != 0; wIn &= wIn - 1 {
			sumIn += xs[base+bits.TrailingZeros64(wIn)]
		}
		for ; wOut != 0; wOut &= wOut - 1 {
			sumOut += xs[base+bits.TrailingZeros64(wOut)]
		}
	}
	mIn = moments{n: nIn, mean: sumIn / float64(nIn)}
	mOut = moments{n: nOut, mean: sumOut / float64(nOut)}
	if nIn < 2 && nOut < 2 {
		return mIn, mOut
	}
	meanIn, meanOut := mIn.mean, mOut.mean
	var ssIn, compIn, ssOut, compOut float64
	for wi, v := range valid {
		base := wi << 6
		wIn, wOut := in[wi]&v, out[wi]&v
		for ; wIn != 0 && wOut != 0; wIn, wOut = wIn&(wIn-1), wOut&(wOut-1) {
			di := xs[base+bits.TrailingZeros64(wIn)] - meanIn
			do := xs[base+bits.TrailingZeros64(wOut)] - meanOut
			ssIn += di * di
			compIn += di
			ssOut += do * do
			compOut += do
		}
		for ; wIn != 0; wIn &= wIn - 1 {
			d := xs[base+bits.TrailingZeros64(wIn)] - meanIn
			ssIn += d * d
			compIn += d
		}
		for ; wOut != 0; wOut &= wOut - 1 {
			d := xs[base+bits.TrailingZeros64(wOut)] - meanOut
			ssOut += d * d
			compOut += d
		}
	}
	mIn.ss, mIn.comp = ssIn, compIn
	mOut.ss, mOut.comp = ssOut, compOut
	return mIn, mOut
}

// mark sets, for each lane, the order positions of the rows of word w
// (rows base to base+63) in the lane's marks, and adds them to its sum.
func (k *block) mark(sums *[blockLanes]int64, base int, w uint64) {
	for l := 0; l < k.lanes; l++ {
		pos, marks, sum := k.pos[l], k.marks[l], int64(0)
		for w := w; w != 0; w &= w - 1 {
			p := pos[base+bits.TrailingZeros64(w)]
			marks[p>>6] |= 1 << (uint32(p) & 63)
			sum += int64(p)
		}
		sums[l] += sum
	}
}

// laneSplit is what a fresh query computes of one numeric column's split:
// both sides' moments and, on a ranking engine, its Ranking.
type laneSplit struct {
	in, out moments
	r       stats.Ranking
}

// SplitScratch is one worker's reusable state for splitting blocks of
// columns: the ranking scratch and one order-space bitmap per lane. The
// zero value is ready to use; a warmed scratch splits without allocating.
type SplitScratch struct {
	rank  stats.RankingScratch
	marks [blockLanes][]uint64
}

// split runs the per-query kernels of a fresh query for the block's
// columns over the nIn rows of in ∧ valid and the nOut rows of out ∧
// valid: every lane's moments of both sides and, when ranks holds the
// lanes' prepared rank indexes, its Ranking (with the quantiles when asked)
// on s. On an exact split — the sides hold every ranked row — the moment
// walk's first pass marks the smaller side's positions, and each Ranking
// is finished from them (stats.RankIndex.RankMarked); a sampled split
// ranks each lane with Rank.
func (k *block) split(in, out, valid []uint64, nIn, nOut int, ranks *[blockLanes]*stats.RankIndex, quantiles bool, s *SplitScratch) (res [blockLanes]laneSplit) {
	if k.lanes == 1 {
		res[0].in, res[0].out = summarizePair(k.xs[0], in, out, valid, nIn, nOut)
		if ranks[0] != nil {
			res[0].r = ranks[0].Rank(&s.rank, k.xs[0], in, out, nIn, nOut, quantiles)
		}
		return res
	}
	exact := ranks[0] != nil && nIn+nOut == ranks[0].N
	a, b, na, nb := in, out, nIn, nOut
	swap := nIn > nOut // a is the smaller side, the one RankMarked reads
	if swap {
		a, b, na, nb = out, in, nOut, nIn
	}
	if exact {
		nw := (ranks[0].N + 63) >> 6
		for l := 0; l < k.lanes; l++ {
			k.pos[l] = ranks[l].Pos
			k.marks[l] = zeroed(&s.marks[l], nw)
		}
	}
	ma, mb, sums := k.walk(a, b, valid, na, nb)
	if swap {
		ma, mb = mb, ma
	}
	for l := 0; l < k.lanes; l++ {
		res[l].in, res[l].out = ma[l], mb[l]
		switch {
		case exact:
			res[l].r = ranks[l].RankMarked(&s.rank, k.xs[l], k.marks[l], sums[l], nIn, nOut, quantiles)
		case ranks[l] != nil:
			res[l].r = ranks[l].Rank(&s.rank, k.xs[l], in, out, nIn, nOut, quantiles)
		}
	}
	return res
}

// zeroed returns *buf resized to n words, all zero.
func zeroed(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// tally counts the dictionary codes of the rows of mask ∧ valid into a
// fresh k-entry slice.
func tally(codes []int32, mask, valid []uint64, k int) []float64 {
	counts := make([]float64, k)
	for wi, v := range valid {
		for w := mask[wi] & v; w != 0; w &= w - 1 {
			counts[codes[wi<<6+bits.TrailingZeros64(w)]]++
		}
	}
	return counts
}

// correlatePair returns the Pearson correlation of columns a and b, and
// its complete-case count, over the rows of in and of out where both
// columns are non-NULL (validA ∧ validB), each in stats.Pearson's two
// passes. Like summarizePair it walks both sides of each word in one loop,
// each side adding its rows in ascending order, so each side's r is
// stats.Pearson's of that side's complete cases bit for bit.
func correlatePair(a, b []float64, in, out, validA, validB []uint64) (rIn float64, nIn int, rOut float64, nOut int) {
	var saIn, sbIn, saOut, sbOut float64
	for wi := range validA {
		base, v := wi<<6, validA[wi]&validB[wi]
		wIn, wOut := in[wi]&v, out[wi]&v
		nIn += bits.OnesCount64(wIn)
		nOut += bits.OnesCount64(wOut)
		for ; wIn != 0 && wOut != 0; wIn, wOut = wIn&(wIn-1), wOut&(wOut-1) {
			i, o := base+bits.TrailingZeros64(wIn), base+bits.TrailingZeros64(wOut)
			saIn += a[i]
			sbIn += b[i]
			saOut += a[o]
			sbOut += b[o]
		}
		for ; wIn != 0; wIn &= wIn - 1 {
			i := base + bits.TrailingZeros64(wIn)
			saIn += a[i]
			sbIn += b[i]
		}
		for ; wOut != 0; wOut &= wOut - 1 {
			o := base + bits.TrailingZeros64(wOut)
			saOut += a[o]
			sbOut += b[o]
		}
	}
	rIn, rOut = math.NaN(), math.NaN()
	if nIn < 2 && nOut < 2 {
		return rIn, nIn, rOut, nOut
	}
	maIn, mbIn := saIn/float64(nIn), sbIn/float64(nIn)
	maOut, mbOut := saOut/float64(nOut), sbOut/float64(nOut)
	var sxyIn, sxxIn, syyIn, sxyOut, sxxOut, syyOut float64
	for wi := range validA {
		base, v := wi<<6, validA[wi]&validB[wi]
		wIn, wOut := in[wi]&v, out[wi]&v
		for ; wIn != 0 && wOut != 0; wIn, wOut = wIn&(wIn-1), wOut&(wOut-1) {
			i, o := base+bits.TrailingZeros64(wIn), base+bits.TrailingZeros64(wOut)
			dxi, dyi := a[i]-maIn, b[i]-mbIn
			dxo, dyo := a[o]-maOut, b[o]-mbOut
			sxyIn += dxi * dyi
			sxxIn += dxi * dxi
			syyIn += dyi * dyi
			sxyOut += dxo * dyo
			sxxOut += dxo * dxo
			syyOut += dyo * dyo
		}
		for ; wIn != 0; wIn &= wIn - 1 {
			i := base + bits.TrailingZeros64(wIn)
			dx, dy := a[i]-maIn, b[i]-mbIn
			sxyIn += dx * dy
			sxxIn += dx * dx
			syyIn += dy * dy
		}
		for ; wOut != 0; wOut &= wOut - 1 {
			o := base + bits.TrailingZeros64(wOut)
			dx, dy := a[o]-maOut, b[o]-mbOut
			sxyOut += dx * dy
			sxxOut += dx * dx
			syyOut += dy * dy
		}
	}
	if nIn >= 2 {
		rIn = stats.FinishPearson(sxyIn, sxxIn, syyIn)
	}
	if nOut >= 2 {
		rOut = stats.FinishPearson(sxyOut, sxxOut, syyOut)
	}
	return rIn, nIn, rOut, nOut
}

// correlateKept returns what correlatePair returns for two columns with
// the same validity mask valid, from one co-moment pass instead of two:
// Σ(a−mₐ)(b−m_b) over each side's rows, finished (stats.FinishPearson) with
// the sides' Σ(a−mₐ)² and Σ(b−m_b)² that the columns' moment walks kept
// (ai, ao of column a on the in and out sides; bi, bo of b). Over one mask
// the complete cases are each column's own rows, so the kept means and
// sums are the ones correlatePair's two passes would add, and r matches
// bit for bit.
func correlateKept(a, b []float64, in, out, valid []uint64, ai, ao, bi, bo moments) (rIn float64, nIn int, rOut float64, nOut int) {
	rIn, nIn, rOut, nOut = math.NaN(), ai.n, math.NaN(), ao.n
	if nIn < 2 && nOut < 2 {
		return rIn, nIn, rOut, nOut
	}
	var sxyIn, sxyOut float64
	for wi, v := range valid {
		base := wi << 6
		wIn, wOut := in[wi]&v, out[wi]&v
		for ; wIn != 0 && wOut != 0; wIn, wOut = wIn&(wIn-1), wOut&(wOut-1) {
			i, o := base+bits.TrailingZeros64(wIn), base+bits.TrailingZeros64(wOut)
			sxyIn += (a[i] - ai.mean) * (b[i] - bi.mean)
			sxyOut += (a[o] - ao.mean) * (b[o] - bo.mean)
		}
		for ; wIn != 0; wIn &= wIn - 1 {
			i := base + bits.TrailingZeros64(wIn)
			sxyIn += (a[i] - ai.mean) * (b[i] - bi.mean)
		}
		for ; wOut != 0; wOut &= wOut - 1 {
			o := base + bits.TrailingZeros64(wOut)
			sxyOut += (a[o] - ao.mean) * (b[o] - bo.mean)
		}
	}
	if nIn >= 2 {
		rIn = stats.FinishPearson(sxyIn, ai.ss, bi.ss)
	}
	if nOut >= 2 {
		rOut = stats.FinishPearson(sxyOut, ao.ss, bo.ss)
	}
	return rIn, nIn, rOut, nOut
}

// correlationRatio returns the correlation ratio η of numeric xs grouped
// by the k-category codes over the rows of mask where both columns are
// non-NULL (validCat ∧ validNum), fed to the accumulator in ascending row
// order like the dependency matrix's column scan.
func correlationRatio(codes []int32, xs []float64, k int, mask, validCat, validNum []uint64) stats.Eta {
	acc := stats.NewCorrelationRatio(k)
	for wi, m := range mask {
		for w := m & validCat[wi] & validNum[wi]; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			acc.Add(codes[i], xs[i])
		}
	}
	return acc.Eta()
}

// ColumnSplit is what a fresh query computes of one numeric column's
// split: both sides' Summaries and, when the column is ranked, its Ranking
// without quantiles.
type ColumnSplit struct {
	In, Out stats.Summary
	Rank    stats.Ranking
}

// SplitColumns runs, into dst, the per-query kernels that a fresh robust
// or default query runs for numeric columns xs that share the non-NULL
// words valid (frame.ColumnValidWords): the non-NULL row counts of both
// sides, then the column walk of the engine, blockLanes columns at a time
// — each side's Summaries and, when ranks (the columns' prepared
// stats.RankIndex) is non-nil, each Rank without quantiles, its smaller
// side marked in the moments' first pass on an exact split. in and out are
// the sides' word masks, in the layout of partition. On a warmed scratch
// it allocates nothing; it is exported so that benchmarks outside the
// package can time the engine's split of a column or a block.
func SplitColumns(dst []ColumnSplit, xs [][]float64, ranks []*stats.RankIndex, in, out, valid []uint64, s *SplitScratch) {
	nIn, nOut := countRows(in, valid), countRows(out, valid)
	for lo := 0; lo < len(xs); lo += blockLanes {
		hi := min(lo+blockLanes, len(xs))
		var k block
		k.fill(xs[lo:hi]...)
		var kr [blockLanes]*stats.RankIndex
		if ranks != nil {
			copy(kr[:], ranks[lo:hi])
		}
		res := k.split(in, out, valid, nIn, nOut, &kr, false, s)
		for l := range hi - lo {
			dst[lo+l] = ColumnSplit{In: res[l].in.summary(), Out: res[l].out.summary(), Rank: res[l].r}
		}
	}
}
