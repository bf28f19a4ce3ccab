package stats

import (
	"math"
	"sync/atomic"
)

// rankOps counts ranking passes — radix sorts of an index permutation by
// value — executed since process start. The robust and extended paths are specified to sort each numeric
// column once per table (Order, during preparation) and never per query:
// a query's two-group Ranking is a walk over that order, which costs no
// pass. Tests and benchmarks read this counter to assert that budget
// instead of guessing from allocation counts. One atomic add per ranking
// pass is noise next to the sort it meters.
var rankOps atomic.Int64

// RankOps returns the number of ranking passes performed so far. Intended
// for tests and benchmark metrics (read a delta around the measured code);
// it never resets.
func RankOps() int64 { return rankOps.Load() }

// Order writes the sort order of xs into dst and returns it: the rows of
// xs's non-NaN values (NaN is the frame's NULL), ascending in floatKey
// order. dst needs capacity for every non-NaN value (it grows otherwise);
// s holds the radix buffers (nil allocates). This is the one ranking pass
// a numeric column costs: the engine orders each column once per table in
// its preparation stage, and every query's two-group Ranking is then a
// linear walk of the order (OrderRanking). Rows are int32, so a column
// holds fewer than 2³¹ rows.
func Order(s *RankScratch, dst []int32, xs []float64) []int32 {
	rankOps.Add(1)
	order := dst[:0]
	for i, v := range xs {
		if !math.IsNaN(v) {
			order = append(order, int32(i))
		}
	}
	radixSortPerm(s, order, xs)
	return order
}

// Ranking is what the robust and extended components need from one column
// split into group A (the selection) and group B (its complement): the
// Wilcoxon rank sum, the tie correction and both medians, computed by one
// walk of the column's sort order, plus what it takes to walk that order
// again for group quantiles. It is the engine's only source of ranks,
// medians, quantiles and tail weights: Cliff's delta, the Mann-Whitney
// test, the group medians and the extended quantile and tail components
// all read the same value, so no group copy is ever sorted.
type Ranking struct {
	// NA and NB are the group sizes.
	NA, NB int
	// RankSumA is the sum of group A's fractional 1-based ranks (the
	// Wilcoxon rank-sum W): half of the walk's doubled sum, which is an
	// exact integer for any column Order accepts (fewer than 2³¹ rows).
	// Up to 94,906,265 ranked rows W stays below 2⁵², so it is also
	// exactly what adding the half-integer ranks in float64 gives, in any
	// order; past that a float sum rounds, while W is the exact sum rounded
	// once.
	RankSumA float64
	// TieSum is Σ(t³−t) over tie groups, the Mann-Whitney tie correction.
	TieSum float64
	// MedianA and MedianB are the per-group medians (type-7 interpolation,
	// identical to Median), read off the walk so the groups are never
	// sorted.
	MedianA, MedianB float64
	// HasNaN reports that the input contained a NaN, which makes ranks
	// meaningless; consumers must treat the sample as untestable.
	HasNaN bool

	// The walk's inputs, kept for QuantilesA/QuantilesB: the values, their
	// order, and the group masks (see OrderRanking). A Ranking only reads
	// them, so it stays valid as long as the caller leaves them unchanged.
	// order is nil for NaN-bearing input.
	xs    []float64
	order []int32
	a, b  []uint64
}

// NewRanking ranks the concatenation of a and b with fresh allocations:
// it orders the concatenation (one ranking pass) and walks it with group
// A being the positions below len(a) and group B the rest — the same walk
// OrderRanking runs on a column. NaN-bearing input yields a Ranking with
// HasNaN set and no ranking pass performed (NaNs break comparison
// sorting, so any rank-derived statistic would be garbage).
func NewRanking(a, b []float64) Ranking {
	na, nb := len(a), len(b)
	r := Ranking{NA: na, NB: nb, MedianA: math.NaN(), MedianB: math.NaN()}
	xs := make([]float64, 0, na+nb)
	xs = append(xs, a...)
	xs = append(xs, b...)
	for _, v := range xs {
		if math.IsNaN(v) {
			r.HasNaN = true
			return r
		}
	}
	maskA, maskB := make([]uint64, (na+nb+63)/64), make([]uint64, (na+nb+63)/64)
	for row := range xs {
		if row < na {
			maskA[row>>6] |= 1 << (uint(row) & 63)
		} else {
			maskB[row>>6] |= 1 << (uint(row) & 63)
		}
	}
	return OrderRanking(xs, Order(nil, make([]int32, 0, na+nb), xs), maskA, maskB, na, nb)
}

// OrderRanking derives the two-group Ranking of column xs from its sort
// order (Order) in one linear walk, without sorting or allocating. Row r
// of the order is in group A when mask a has bit r set (row r at bit r&63
// of word r>>6, the frame.Bitmap layout), in group B when mask b has, and
// takes no part when neither has; the masks must not share a row. na and
// nb are the group sizes, which every caller already holds from counting
// its masks; the walk places the medians by them and panics if its own
// counts disagree.
//
// Ties are detected by value equality, so −0 and +0 share a tie group.
// Because the order is a sorted multiset, the medians (and QuantilesA/B)
// read the same values as sorting each group on its own.
//
// Membership is read as 0/1 from the mask words rather than branched on,
// since a selection interleaves the groups unpredictably along the order;
// the only membership branch skips rows outside both masks, which occur
// only under an approximate sample. The rank sum is accumulated doubled,
// in an int64, so every tie group adds an integer (see Ranking.RankSumA);
// the tie correction adds Σ(t³−t) in float64, group by group.
func OrderRanking(xs []float64, order []int32, a, b []uint64, na, nb int) Ranking {
	r := Ranking{NA: na, NB: nb, xs: xs, order: order, a: a, b: b}
	loA, hiA, fracA := medianPlan(na)
	loB, hiB, fracB := medianPlan(nb)
	var loVA, hiVA, loVB, hiVB float64
	// seen counts the taking-part rows walked so far. offA and offB are
	// each group's rows walked so far less its median's position lo, so a
	// row is its group's lo-th when its off is 0 and the hi-th (lo+1) when
	// it is 1. The open tie group starts at position pos and holds ga rows
	// of group A; gv is its value (NaN before the first row, so the first
	// row opens a group). Closed, a group of gn = seen−pos rows holds ranks
	// pos+1 … pos+gn, so each member's doubled rank is 2·pos+gn+1.
	gv := math.NaN()
	var seen, pos, ga, sum2 int64
	offA, offB := -int64(loA), -int64(loB)
	var tieSum float64
	for _, row := range order {
		// Both tests compile to a bit test and a set, not a branch.
		w, bit := row>>6, uint64(1)<<(uint32(row)&63)
		var inA, inB int64
		if a[w]&bit != 0 {
			inA = 1
		}
		if b[w]&bit != 0 {
			inB = 1
		}
		if inA|inB == 0 {
			continue
		}
		v := xs[row]
		if v != gv {
			gn := seen - pos
			sum2 += ga * (2*pos + gn + 1)
			if gn > 1 {
				t := float64(gn)
				tieSum += t*t*t - t
			}
			gv, pos, ga = v, seen, 0
		}
		// Open for at most a few rows around each median.
		if uint64(offA) <= 1 || uint64(offB) <= 1 {
			switch {
			case inA != 0 && offA == 0:
				loVA = v
			case inA != 0 && offA == 1:
				hiVA = v
			case inB != 0 && offB == 0:
				loVB = v
			case inB != 0 && offB == 1:
				hiVB = v
			}
		}
		ga += inA
		offA += inA
		offB += inB
		seen++
	}
	// Close the last group.
	gn := seen - pos
	sum2 += ga * (2*pos + gn + 1)
	if gn > 1 {
		t := float64(gn)
		tieSum += t*t*t - t
	}
	if int(offA)+loA != na || int(offB)+loB != nb {
		panic("stats: OrderRanking group sizes disagree with the split")
	}
	r.RankSumA, r.TieSum = float64(sum2)/2, tieSum
	r.MedianA = interpolate(na, hiA, fracA, loVA, hiVA)
	r.MedianB = interpolate(nb, hiB, fracB, loVB, hiVB)
	return r
}

// medianPlan returns the order-statistic positions and weight of the
// type-7 median of n values: Quantile's arithmetic at q = 0.5. hi is −1
// when the median is the single value at lo.
func medianPlan(n int) (lo, hi int, frac float64) {
	if n <= 1 {
		return 0, -1, 0
	}
	h := 0.5 * float64(n-1)
	lo = int(math.Floor(h))
	return lo, lo + 1, h - float64(lo)
}

// interpolate finishes a type-7 quantile of n values from its two order
// statistics with Quantile's expression; NaN for an empty group.
func interpolate(n, hi int, frac, vlo, vhi float64) float64 {
	switch {
	case n == 0:
		return math.NaN()
	case hi < 0:
		return vlo
	default:
		return vlo*(1-frac) + vhi*frac
	}
}

// QuantilesA fills dst[i] with the qs[i]-th sample quantile of group A,
// walking the order with the same membership test as the ranking walk
// instead of sorting a group copy. The interpolation replicates Quantile
// (type-7) exactly, so the results are bit-identical to sorting the group
// separately. dst must have len(qs); for NaN-bearing rankings or an empty
// group every dst entry is NaN.
func (r Ranking) QuantilesA(qs, dst []float64) { r.groupQuantiles(r.NA, r.a, qs, dst) }

// QuantilesB is QuantilesA for group B.
func (r Ranking) QuantilesB(qs, dst []float64) { r.groupQuantiles(r.NB, r.b, qs, dst) }

// groupQuantiles walks the order once over the n rows of mask, capturing
// the order statistics every requested quantile needs and interpolating with the same
// expression as Quantile. The extended components call it four times per
// numeric column, so the bookkeeping for the common ≤8-quantile case lives
// on the stack.
func (r Ranking) groupQuantiles(n int, mask []uint64, qs, dst []float64) {
	if r.order == nil || n == 0 {
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
	// Membership is read as 0/1, as in OrderRanking, and a row is only
	// read when it is the member at next, the lowest planned position not
	// yet passed: seen|(in−1) is a member's position and −1 for any other
	// row, so every row but the few planned ones costs one compare that
	// predicts well.
	next := nextPlanned(los, his, -1)
	seen := -1
	for _, row := range r.order {
		in := 0
		if mask[row>>6]&(1<<(uint32(row)&63)) != 0 {
			in = 1
		}
		seen += in
		if seen|(in-1) != next {
			continue
		}
		for i := range qs {
			if los[i] == seen {
				vlo[i] = r.xs[row]
			}
			if his[i] == seen {
				vhi[i] = r.xs[row]
			}
		}
		if seen >= maxPos {
			break
		}
		next = nextPlanned(los, his, seen)
	}
	for i := range qs {
		dst[i] = interpolate(n, his[i], fracs[i], vlo[i], vhi[i])
	}
}

// nextPlanned returns the lowest of the positions los and his above
// after, or −1 when none is.
func nextPlanned(los, his []int, after int) int {
	next := -1
	for _, ps := range [2][]int{los, his} {
		for _, p := range ps {
			if p > after && (next < 0 || p < next) {
				next = p
			}
		}
	}
	return next
}

// SpearmanRanked returns the Spearman correlation of two series whose
// fractional ranks were already computed (it is their Pearson correlation).
// Callers that correlate many pairs over the same columns — the dependency
// matrix — rank each column once and call this per pair instead of paying
// two ranking passes per pair through Spearman.
func SpearmanRanked(rx, ry []float64) float64 {
	return Pearson(rx, ry)
}
