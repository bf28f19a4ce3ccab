package stats

import (
	"math"
	"sync/atomic"
)

// rankOps counts ranking passes (one kernel sort of the column's index
// permutation, whatever strategy the selector picked) executed since
// process start. The robust and extended paths are specified to rank each
// usable numeric column's in+out concatenation exactly once per
// characterization; tests and
// benchmarks read this counter to assert that budget instead of guessing
// from allocation counts. One atomic add per ranking pass is noise next to
// the sort it meters.
var rankOps atomic.Int64

// RankOps returns the number of ranking passes performed so far. Intended
// for tests and benchmark metrics (read a delta around the measured code);
// it never resets.
func RankOps() int64 { return rankOps.Load() }

// ranksCoreWith writes the fractional 1-based ranks of xs into dst using
// idx as index scratch, and returns the tie-correction term Σ(t³−t) summed
// over tie groups in ascending value order — the quantity the Mann-Whitney
// variance needs, computed for free while the tie groups are being walked
// for rank averaging. dst and idx must have length len(xs). The sort
// strategy is chosen per column (sortkernels.go) and its buffers come from
// s (nil allocates), so a warmed scratch ranks without allocating. Tie
// groups are detected by value equality after the sort, which makes the
// rank vector, tie correction and rank sums identical for every kernel —
// including across the kernels' differing (and unobservable) orderings
// within a tie group.
func ranksCoreWith(s *RankScratch, dst []float64, idx []int, xs []float64) float64 {
	rankOps.Add(1)
	n := len(xs)
	for i := range idx {
		idx[i] = i
	}
	k, lo, span := chooseKernel(xs)
	sortPermKernel(s, idx, xs, k, lo, span)
	tieSum := 0.0
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
		if tlen := float64(j - i + 1); tlen > 1 {
			tieSum += tlen*tlen*tlen - tlen
		}
		i = j + 1
	}
	return tieSum
}

// Ranking is the rank-once product for a two-group sample: everything the
// robust and extended components need from the single ranking pass over
// the concatenation of group A (the selection) and group B (its
// complement). It is the engine's only source of ranks, medians, quantiles
// and tail weights: Cliff's delta, the Mann-Whitney test, the group medians
// and the extended quantile and tail components all read the same value,
// so no group copy is ever sorted.
type Ranking struct {
	// Ranks are the fractional 1-based ranks of the combined sample, group
	// A's values first. When built via RankingIntoWith the slice aliases the
	// caller's scratch and is only valid until the scratch is reused; the
	// scalar fields below are always safe to retain.
	Ranks []float64
	// Values is the concatenated sample the ranking was built over (group
	// A's values first) and Perm its ascending sort permutation: Values
	// indexed through Perm is the combined sample in sorted order. The
	// extended quantile and tail components read per-group order
	// statistics off this pair instead of re-sorting group copies. Both
	// slices alias caller storage under the same lifetime rules as Ranks;
	// Perm is nil for NaN-bearing input.
	Values []float64
	Perm   []int
	// NA and NB are the group sizes.
	NA, NB int
	// RankSumA is the sum of group A's ranks (the Wilcoxon rank-sum W),
	// accumulated in group-A element order.
	RankSumA float64
	// TieSum is Σ(t³−t) over tie groups, the Mann-Whitney tie correction.
	TieSum float64
	// MedianA and MedianB are the per-group medians (type-7 interpolation,
	// identical to Median), read off the combined sort order so the groups
	// are never re-sorted.
	MedianA, MedianB float64
	// HasNaN reports that the input contained a NaN, which makes ranks
	// meaningless; consumers must treat the sample as untestable.
	HasNaN bool
}

// NewRanking ranks the concatenation of a and b with fresh allocations.
func NewRanking(a, b []float64) Ranking {
	n := len(a) + len(b)
	combined := make([]float64, 0, n)
	combined = append(combined, a...)
	combined = append(combined, b...)
	return RankingIntoWith(nil, make([]float64, n), make([]int, n), combined, len(a))
}

// RankingIntoWith ranks combined — group A's na values followed by group
// B's — writing ranks into dst and using idx as index scratch; both must
// have length len(combined). Inputs containing NaN yield a Ranking with
// HasNaN set and no ranking pass performed (NaNs break comparison sorting,
// so any rank-derived statistic would be garbage). The kernel scratch s
// (nil allocates) keeps the radix/counting sort buffers across columns:
// effect.Scratch threads its per-worker RankScratch through here, making a
// warmed worker's ranking passes allocation-free.
func RankingIntoWith(s *RankScratch, dst []float64, idx []int, combined []float64, na int) Ranking {
	r := Ranking{NA: na, NB: len(combined) - na, MedianA: math.NaN(), MedianB: math.NaN()}
	for _, v := range combined {
		if math.IsNaN(v) {
			r.HasNaN = true
			return r
		}
	}
	r.TieSum = ranksCoreWith(s, dst, idx, combined)
	r.Ranks = dst
	r.Values = combined
	r.Perm = idx
	for i := 0; i < na; i++ {
		r.RankSumA += dst[i]
	}
	r.MedianA = groupMedian(combined, idx, na, func(orig int) bool { return orig < na })
	r.MedianB = groupMedian(combined, idx, r.NB, func(orig int) bool { return orig >= na })
	return r
}

// groupMedian computes the median of the group selected by member, reading
// the group's order statistics off the combined sort order in idx. It
// replicates Quantile(sorted, 0.5) arithmetic exactly (same interpolation
// expression), so a Ranking-backed median is bit-identical to sorting the
// group separately.
func groupMedian(combined []float64, idx []int, n int, member func(orig int) bool) float64 {
	if n == 0 {
		return math.NaN()
	}
	h := 0.5 * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	frac := h - float64(lo)
	vlo, vhi := math.NaN(), math.NaN()
	seen := -1
	for _, orig := range idx {
		if !member(orig) {
			continue
		}
		seen++
		if seen == lo {
			vlo = combined[orig]
			if n == 1 || hi >= n {
				return vlo
			}
		}
		if seen == hi {
			vhi = combined[orig]
			break
		}
	}
	return vlo*(1-frac) + vhi*frac
}

// QuantilesA fills dst[i] with the qs[i]-th sample quantile of group A,
// reading the group's order statistics off the combined sort permutation
// instead of re-sorting a group copy. The interpolation replicates
// Quantile (type-7) exactly, so the results are bit-identical to sorting
// the group separately. dst must have len(qs); for NaN-bearing rankings
// (Perm == nil) or an empty group every dst entry is NaN.
func (r Ranking) QuantilesA(qs, dst []float64) { r.groupQuantiles(r.NA, false, qs, dst) }

// QuantilesB is QuantilesA for group B.
func (r Ranking) QuantilesB(qs, dst []float64) { r.groupQuantiles(r.NB, true, qs, dst) }

// groupQuantiles walks the sort permutation once, capturing the order
// statistics every requested quantile needs and interpolating with the
// same expression as Quantile. The extended components call it four times
// per numeric column, so the bookkeeping for the common ≤8-quantile case
// lives on the stack.
func (r Ranking) groupQuantiles(n int, groupB bool, qs, dst []float64) {
	if r.Perm == nil || n == 0 {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return
	}
	var losBuf, hisBuf [8]int
	var fracsBuf, vloBuf, vhiBuf [8]float64
	los, his := losBuf[:0], hisBuf[:0]
	fracs, vlo, vhi := fracsBuf[:0], vloBuf[:0], vhiBuf[:0]
	if len(qs) > len(losBuf) {
		los = make([]int, 0, len(qs))
		his = make([]int, 0, len(qs))
		fracs = make([]float64, 0, len(qs))
		vlo = make([]float64, 0, len(qs))
		vhi = make([]float64, 0, len(qs))
	}
	// Every read position is written before use: los/his in the planning
	// loop below, fracs/vlo/vhi only on interpolation paths that assigned
	// them first.
	los = los[:len(qs)]
	his = his[:len(qs)]
	fracs = fracs[:len(qs)]
	vlo = vlo[:len(qs)]
	vhi = vhi[:len(qs)]
	maxPos := 0
	for i, q := range qs {
		if n == 1 {
			los[i], his[i] = 0, -1
			continue
		}
		h := q * float64(n-1)
		lo := int(math.Floor(h))
		if hi := lo + 1; hi >= n {
			los[i], his[i] = n-1, -1
		} else {
			los[i], his[i], fracs[i] = lo, hi, h-float64(lo)
		}
		for _, p := range [2]int{los[i], his[i]} {
			if p > maxPos {
				maxPos = p
			}
		}
	}
	seen := -1
	for _, orig := range r.Perm {
		if (orig >= r.NA) != groupB {
			continue
		}
		seen++
		for i := range qs {
			if los[i] == seen {
				vlo[i] = r.Values[orig]
			}
			if his[i] == seen {
				vhi[i] = r.Values[orig]
			}
		}
		if seen >= maxPos {
			break
		}
	}
	for i := range qs {
		if his[i] < 0 {
			dst[i] = vlo[i]
		} else {
			dst[i] = vlo[i]*(1-fracs[i]) + vhi[i]*fracs[i]
		}
	}
}

// SpearmanRanked returns the Spearman correlation of two series whose
// fractional ranks were already computed (it is their Pearson correlation).
// Callers that correlate many pairs over the same columns — the dependency
// matrix — rank each column once and call this per pair instead of paying
// two ranking passes per pair through Spearman.
func SpearmanRanked(rx, ry []float64) float64 {
	return Pearson(rx, ry)
}
