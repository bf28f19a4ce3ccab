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
// nothing is copied. The moment and pair walks (summarizePair,
// correlatePair) serve both sides in one loop over the words, a word's
// in-bits beside its out-bits, so the sides' add chains overlap. Every
// side still visits its rows in ascending order, the order a copied split
// would hold them, so each side's sums are the slice functions' sums bit
// for bit.
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

// summarizePair returns the Summaries of xs over the nIn rows of
// in ∧ valid and the nOut rows of out ∧ valid, each in Summarize's two
// passes: the mean, then the compensated sums of squares. A side of fewer
// than two rows keeps a NaN variance.
//
// Both sides walk each word in one loop, so their two add chains overlap
// instead of running back to back; each side still adds its own rows in
// ascending order, so each Summary is Summarize's of that side bit for
// bit.
func summarizePair(xs []float64, in, out, valid []uint64, nIn, nOut int) (sIn, sOut stats.Summary) {
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
	sIn = stats.Summary{N: nIn, Mean: sumIn / float64(nIn), Var: math.NaN()}
	sOut = stats.Summary{N: nOut, Mean: sumOut / float64(nOut), Var: math.NaN()}
	if nIn < 2 && nOut < 2 {
		return sIn, sOut
	}
	mIn, mOut := sIn.Mean, sOut.Mean
	var ssIn, compIn, ssOut, compOut float64
	for wi, v := range valid {
		base := wi << 6
		wIn, wOut := in[wi]&v, out[wi]&v
		for ; wIn != 0 && wOut != 0; wIn, wOut = wIn&(wIn-1), wOut&(wOut-1) {
			di := xs[base+bits.TrailingZeros64(wIn)] - mIn
			do := xs[base+bits.TrailingZeros64(wOut)] - mOut
			ssIn += di * di
			compIn += di
			ssOut += do * do
			compOut += do
		}
		for ; wIn != 0; wIn &= wIn - 1 {
			d := xs[base+bits.TrailingZeros64(wIn)] - mIn
			ssIn += d * d
			compIn += d
		}
		for ; wOut != 0; wOut &= wOut - 1 {
			d := xs[base+bits.TrailingZeros64(wOut)] - mOut
			ssOut += d * d
			compOut += d
		}
	}
	if nIn >= 2 {
		sIn.Var = stats.FinishVariance(ssIn, compIn, nIn)
	}
	if nOut >= 2 {
		sOut.Var = stats.FinishVariance(ssOut, compOut, nOut)
	}
	return sIn, sOut
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

// SplitColumn runs the per-query kernels that a fresh query runs for one
// numeric column: the non-NULL row counts of both sides, their Summaries
// (summarizePair) and, when ranks (the column's prepared stats.RankIndex)
// is non-nil, its Rank without quantiles on the caller's scratch s. in and
// out are the sides' word masks, in the layout of partition, and valid the
// column's non-NULL words (frame.ColumnValidWords). On a warmed scratch it
// allocates nothing; it is exported so that benchmarks outside the package
// can time the engine's split of a column.
func SplitColumn(xs []float64, ranks *stats.RankIndex, in, out, valid []uint64, s *stats.RankingScratch) (sIn, sOut stats.Summary, r stats.Ranking) {
	nIn, nOut := countRows(in, valid), countRows(out, valid)
	sIn, sOut = summarizePair(xs, in, out, valid, nIn, nOut)
	if ranks != nil {
		r = ranks.Rank(s, xs, in, out, nIn, nOut, false)
	}
	return sIn, sOut, r
}
