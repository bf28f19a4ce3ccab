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
// nothing is copied. Every walk visits its rows in ascending order, the
// order a copied split would hold them, so a walk's sums are the slice
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

// summarize returns the Summary of xs over the n rows of mask ∧ valid in
// Summarize's two passes: the mean, then the compensated sums of squares.
func summarize(xs []float64, mask, valid []uint64, n int) stats.Summary {
	var sum float64
	for wi, v := range valid {
		for w := mask[wi] & v; w != 0; w &= w - 1 {
			sum += xs[wi<<6+bits.TrailingZeros64(w)]
		}
	}
	s := stats.Summary{N: n, Mean: sum / float64(n), Var: math.NaN()}
	if n < 2 {
		return s
	}
	var ss, comp float64
	for wi, v := range valid {
		for w := mask[wi] & v; w != 0; w &= w - 1 {
			d := xs[wi<<6+bits.TrailingZeros64(w)] - s.Mean
			ss += d * d
			comp += d
		}
	}
	s.Var = stats.FinishVariance(ss, comp, n)
	return s
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

// correlate returns the Pearson correlation of columns a and b over the
// rows of mask where both are non-NULL (validA ∧ validB), and that
// complete-case count, in stats.Pearson's two passes.
func correlate(a, b []float64, mask, validA, validB []uint64) (r float64, n int) {
	var sa, sb float64
	for wi, m := range mask {
		w := m & validA[wi] & validB[wi]
		n += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			sa += a[i]
			sb += b[i]
		}
	}
	if n < 2 {
		return math.NaN(), n
	}
	ma, mb := sa/float64(n), sb/float64(n)
	var sxy, sxx, syy float64
	for wi, m := range mask {
		for w := m & validA[wi] & validB[wi]; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			dx, dy := a[i]-ma, b[i]-mb
			sxy += dx * dy
			sxx += dx * dx
			syy += dy * dy
		}
	}
	return stats.FinishPearson(sxy, sxx, syy), n
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
