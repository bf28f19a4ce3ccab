package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// rankOps counts ranking passes — radix sorts of an index permutation by
// value — executed since process start. The robust and extended paths are specified to sort each numeric
// column once per table (Order, inside RankIndex.Build, during preparation)
// and never per query: a query's two-group Ranking reads the column's
// RankIndex, which costs no pass. Tests and benchmarks read this counter to assert that budget
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
// a numeric column costs: RankIndex.Build inverts it into the column's
// RankIndex once per table, and every query's two-group Ranking then reads
// that index. Rows are int32, so a column holds fewer than 2³¹ rows.
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

// RankIndex is what a query needs of one column's sort order, kept instead
// of the order itself: the inverse of Order, so that a query reaches a
// row's rank from the row and can visit only the rows of the smaller side
// of its split. Positions are 0-based; the N non-NaN rows hold exactly the
// positions [0, N).
type RankIndex struct {
	// Pos[r] is row r's position in the column's Order, or −1 for a NaN
	// (NULL) row: one int32 per row.
	Pos []int32
	// N is the number of ranked (non-NaN) rows.
	N int
	// TieSum is Σ(t³−t) over the column's tie groups, added group by group
	// in ascending order: the Mann-Whitney tie correction of any split
	// whose two sides together hold every ranked row.
	TieSum float64
	// Ties lists the tie groups of more than one row as (first, last)
	// position pairs, ascending. Ties are found by value equality, so −0
	// and +0 share a group. A column without ties has none.
	Ties [][2]int32
}

// Build indexes column xs into x: it orders xs (one ranking pass, Order)
// in s's buffers and inverts the order into x.Pos, reusing the storage of
// x.Pos (grown to len(xs)) and of x.Ties (sized to its groups when it has
// too little); s nil allocates every buffer.
func (x *RankIndex) Build(s *RankScratch, xs []float64) {
	if s == nil {
		s = &RankScratch{}
	}
	order := Order(s, s.order[:0], xs)
	s.order = order
	if cap(x.Pos) < len(xs) {
		x.Pos = make([]int32, len(xs))
	}
	pos := x.Pos[:len(xs)]
	if len(order) < len(xs) { // the order writes every row but the NULL ones
		for i := range pos {
			pos[i] = -1
		}
	}
	ties := s.ties[:0]
	var tieSum float64
	// closeTie closes the group of positions [first, end): a group of
	// more than one row is a tie group and adds t³−t to the correction.
	closeTie := func(first, end int) {
		if end-first > 1 {
			t := float64(end - first)
			tieSum += t*t*t - t
			ties = append(ties, [2]int32{int32(first), int32(end - 1)})
		}
	}
	first, prev := 0, 0.0
	for p, row := range order {
		pos[row] = int32(p)
		if v := xs[row]; v != prev || p == 0 {
			closeTie(first, p)
			first, prev = p, v
		}
	}
	closeTie(first, len(order))
	s.ties = ties
	kept := x.Ties[:0]
	if cap(kept) < len(ties) {
		kept = make([][2]int32, 0, len(ties))
	}
	*x = RankIndex{Pos: pos, N: len(order), TieSum: tieSum, Ties: append(kept, ties...)}
}

// QuantileLevels are the levels of the group quantiles a Ranking reads
// when asked for them: the tails' 5th and 95th percentiles, the quartiles
// and the median, which the extended quantile-shift and tail-weight
// components use.
var QuantileLevels = [5]float64{0.05, 0.25, 0.5, 0.75, 0.95}

// Ranking is what the robust and extended components need from one column
// split into group A (the selection) and group B (its complement): the
// Wilcoxon rank sum, the tie correction, both medians and, when asked, the
// group quantiles at QuantileLevels. It is the engine's only source of
// ranks, medians, quantiles and tail weights: Cliff's delta, the
// Mann-Whitney test, the group medians and the extended quantile and tail
// components all read the same value, so no group copy is ever sorted.
type Ranking struct {
	// NA and NB are the group sizes.
	NA, NB int
	// RankSumA is the sum of group A's fractional 1-based ranks (the
	// Wilcoxon rank-sum W): half of a doubled sum kept in an int64, which
	// is an exact integer for any column Order accepts (fewer than 2³¹
	// rows). Up to 94,906,265 ranked rows W stays below 2⁵², so it is also
	// exactly what adding the half-integer ranks in float64 gives, in any
	// order; past that a float sum rounds, while W is the exact sum rounded
	// once.
	RankSumA float64
	// TieSum is Σ(t³−t) over tie groups, the Mann-Whitney tie correction.
	TieSum float64
	// MedianA and MedianB are the per-group medians (type-7 interpolation,
	// identical to Median), so the groups are never sorted.
	MedianA, MedianB float64
	// QuantilesA and QuantilesB are each group's type-7 quantiles at
	// QuantileLevels, bit-identical to Quantile of the group sorted on its
	// own. They are NaN for an empty group, for NaN-bearing input and when
	// the Ranking was not asked for them.
	QuantilesA, QuantilesB [len(QuantileLevels)]float64
	// HasNaN reports that the input contained a NaN, which makes ranks
	// meaningless; consumers must treat the sample as untestable.
	HasNaN bool
}

// NewRanking ranks the concatenation of a and b with fresh allocations:
// it builds the concatenation's RankIndex (one ranking pass) and ranks it
// with group A being the positions below len(a) and group B the rest — the
// same Rank a query runs on a column — quantiles included. NaN-bearing
// input yields a Ranking with HasNaN set, NaN medians and quantiles, and no
// ranking pass performed (NaNs break comparison sorting, so any
// rank-derived statistic would be garbage).
func NewRanking(a, b []float64) Ranking {
	na, nb := len(a), len(b)
	xs := make([]float64, 0, na+nb)
	xs = append(xs, a...)
	xs = append(xs, b...)
	for _, v := range xs {
		if math.IsNaN(v) {
			r := Ranking{NA: na, NB: nb, HasNaN: true}
			r.clearQuantiles()
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
	var x RankIndex
	x.Build(nil, xs)
	return x.Rank(&RankingScratch{}, xs, maskA, maskB, na, nb, true)
}

// clearQuantiles sets every median and quantile to NaN.
func (r *Ranking) clearQuantiles() {
	r.MedianA, r.MedianB = math.NaN(), math.NaN()
	for i := range r.QuantilesA {
		r.QuantilesA[i], r.QuantilesB[i] = math.NaN(), math.NaN()
	}
}

// RankingScratch holds one query's work in order space: one bit per ranked
// position for each side and for the order statistics sought, and each tie
// group's doubled midrank. The zero value is ready to use; the engine keeps
// one per worker while it ranks a query's columns, so a warmed-up worker
// ranks without allocating.
type RankingScratch struct {
	a, b, targets []uint64
	groupRank2    []int64
}

// medianLevel is the median's index in QuantileLevels.
const medianLevel = 2

// groupStats plans and holds the order statistics one group's quantiles
// interpolate (Quantile's type-7 arithmetic): at level j, the quantile of
// the group's n values lies between its k[lo[j]]-th and k[hi[j]]-th
// smallest (0-based), or is the k[lo[j]]-th when hi[j] is −1. The ranks
// ascend with the level, so k lists the distinct ranks sought in ascending
// order, and pos and v hold each one's position in the order and value.
type groupStats struct {
	n, nk  int
	lo, hi [len(QuantileLevels)]int
	k, pos [2 * len(QuantileLevels)]int32
	v      [2 * len(QuantileLevels)]float64
}

// plan plans the statistics of a group of n values at levels: ascending,
// and at most len(QuantileLevels) of them.
func (g *groupStats) plan(levels []float64, n int) {
	g.n, g.nk = n, 0
	if n == 0 {
		return
	}
	// add returns the index of rank k in g.k, appending it when new: k is
	// never below the last rank but one added.
	add := func(k int) int {
		for i := g.nk - 1; i >= 0 && int(g.k[i]) >= k; i-- {
			if int(g.k[i]) == k {
				return i
			}
		}
		g.k[g.nk] = int32(k)
		g.nk++
		return g.nk - 1
	}
	for j, q := range levels {
		k := int(math.Floor(q * float64(n-1)))
		g.hi[j] = -1
		if k+1 >= n {
			g.lo[j] = add(n - 1)
		} else {
			g.lo[j] = add(k)
			g.hi[j] = add(k + 1)
		}
	}
}

// locate sets each planned statistic's position: that of the k-th set bit
// of words, or of the k-th clear bit when comp. The group's k-th member
// always lies below N, so the clear bits past N are never reached. One
// pass over the words serves every statistic.
func (g *groupStats) locate(words []uint64, comp bool) {
	j, seen := 0, 0
	for w := 0; j < g.nk; w++ {
		word := words[w]
		if comp {
			word = ^word
		}
		c := bits.OnesCount64(word)
		for ; j < g.nk && int(g.k[j]) < seen+c; j++ {
			word := word
			for k := int(g.k[j]) - seen; k > 0; k-- {
				word &= word - 1
			}
			g.pos[j] = int32(w<<6 + bits.TrailingZeros64(word))
		}
		seen += c
	}
}

// quantile interpolates level j's quantile, at level q, from its
// statistics with Quantile's expression; NaN for an empty group.
func (g *groupStats) quantile(j int, q float64) float64 {
	switch {
	case g.n == 0:
		return math.NaN()
	case g.hi[j] < 0:
		return g.v[g.lo[j]]
	default:
		h := q * float64(g.n-1)
		frac := h - math.Floor(h)
		return g.v[g.lo[j]]*(1-frac) + g.v[g.hi[j]]*frac
	}
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

// Rank derives the two-group Ranking of column xs from its RankIndex x
// without sorting, and without visiting every row in order. Row r is in
// group A when mask a has bit r set (row r at bit r&63 of word r>>6, the
// frame.Bitmap layout), in group B when mask b has, and takes no part when
// neither has; the masks must not share a row and must be clear past the
// column's last row. NaN rows may be set in either mask and are skipped. na
// and nb are the groups' ranked rows, which every caller already holds from
// counting its masks. When na+nb = x.N the groups cover every ranked row:
// an exact split. Otherwise only the rows of a sample take part, and ranks,
// ties, medians and quantiles are those of the sample. quantiles asks for
// QuantilesA and QuantilesB.
//
// A Rank works in order space, on bitmaps of x.N bits:
//  1. It visits the rows of the smaller group in row order and sets their
//     positions in that group's bitmap, adding the positions up as
//     integers; a sampled split visits both groups. It panics when a
//     visited group's count disagrees with na or nb. An exact split may
//     leave this step to its caller (RankMarked).
//  2. The larger group's doubled rank sum is the smaller's subtracted
//     from n(n+1), n = na+nb. In an exact split the larger group is the
//     complement of the smaller, a position's rank is its own, and the tie
//     correction is the column's own TieSum. Ties, or a sample, rank the
//     positions among the taking-part rows by per-word prefix popcounts
//     instead, each tie group at its midrank, and a sample's tie
//     correction counts each tie group's sampled rows.
//  3. The median's, or every QuantileLevels quantile's, positions are
//     selected by popcount.
//  4. One scan of Pos, stopped when every sought position is found, reads
//     their values.
//
// The rank sum is exact (see Ranking.RankSumA) and the order statistics
// are those of each group sorted on its own, bit for bit: for a tie group
// holding both −0 and +0 the row at a position is the one Order put there.
// s is reused across calls and must not be shared between goroutines.
func (x *RankIndex) Rank(s *RankingScratch, xs []float64, a, b []uint64, na, nb int, quantiles bool) Ranking {
	nw := (x.N + 63) >> 6
	small, nSmall, large, nLarge := a, na, b, nb
	if na > nb { // the smaller group; a sample visits both
		small, nSmall, large, nLarge = b, nb, a, na
	}
	smallBits := zeroed(&s.a, nw)
	sum := x.mark(smallBits, small, nSmall)
	if na+nb == x.N {
		return x.rankMarks(s, xs, smallBits, nil, sum, na, nb, quantiles)
	}
	largeBits := zeroed(&s.b, nw)
	x.mark(largeBits, large, nLarge)
	return x.rankMarks(s, xs, smallBits, largeBits, sum, na, nb, quantiles)
}

// RankMarked is Rank of an exact split (na+nb = x.N) whose first step the
// caller has taken: marks holds one bit per position of x's order (position
// p at bit p&63 of word p>>6), set at the Pos of every row of the smaller
// group — A when na ≤ nb, B otherwise — and clear elsewhere, and sum is
// those positions' sum. A caller that walks the smaller group's rows for
// other statistics marks them in the same walk. It returns Rank's Ranking
// bit for bit, and panics on a sampled split.
func (x *RankIndex) RankMarked(s *RankingScratch, xs []float64, marks []uint64, sum int64, na, nb int, quantiles bool) Ranking {
	if na+nb != x.N {
		panic("stats: RankMarked of a sampled split")
	}
	return x.rankMarks(s, xs, marks, nil, sum, na, nb, quantiles)
}

// rankMarks takes Rank's steps 2 to 4 from the smaller group's marked
// bitmap, the larger group's (read only in a sampled split) and the
// smaller group's position sum.
func (x *RankIndex) rankMarks(s *RankingScratch, xs []float64, smallBits, largeBits []uint64, sum int64, na, nb int, quantiles bool) Ranking {
	r := Ranking{NA: na, NB: nb}
	r.clearQuantiles()
	exact := na+nb == x.N
	walkA := na <= nb
	nSmall := min(na, nb)

	// The doubled rank sum of the smaller group. Alone, position p has the
	// doubled 1-based rank 2p+2.
	var sum2 int64
	r.TieSum = x.TieSum
	if exact && len(x.Ties) == 0 {
		sum2 = 2*sum + 2*int64(nSmall)
	} else {
		var tieSum float64
		sum2, tieSum = x.rankSum2(s, smallBits, largeBits)
		if !exact {
			r.TieSum = tieSum
		}
	}
	if !walkA {
		n := int64(na + nb)
		sum2 = n*(n+1) - sum2
	}
	r.RankSumA = float64(sum2) / 2

	// Each group's bitmap: its visited one, or in an exact split the
	// complement of the smaller group's.
	aBits, bBits := smallBits, smallBits
	switch {
	case !exact && walkA:
		bBits = largeBits
	case !exact:
		aBits = largeBits
	}
	levels, median := QuantileLevels[medianLevel:medianLevel+1], 0
	if quantiles {
		levels, median = QuantileLevels[:], medianLevel
	}
	var ga, gb groupStats
	ga.plan(levels, na)
	gb.plan(levels, nb)
	ga.locate(aBits, exact && !walkA)
	gb.locate(bBits, exact && walkA)
	x.readStats(s, xs, &ga, &gb)

	r.MedianA = ga.quantile(median, levels[median])
	r.MedianB = gb.quantile(median, levels[median])
	if quantiles {
		for j, q := range levels {
			r.QuantilesA[j], r.QuantilesB[j] = ga.quantile(j, q), gb.quantile(j, q)
		}
	}
	return r
}

// mark sets, in order-space bitmap dst, the position of every ranked row
// of mask and returns the positions' sum; it panics unless there are want
// such rows.
func (x *RankIndex) mark(dst, mask []uint64, want int) int64 {
	var sum int64
	n := 0
	for wi, w := range mask {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			p := x.Pos[base+bits.TrailingZeros64(w)]
			if p < 0 {
				continue
			}
			dst[p>>6] |= 1 << (uint32(p) & 63)
			sum += int64(p)
			n++
		}
	}
	if n != want {
		panic("stats: Rank group sizes disagree with the split")
	}
	return sum
}

// rankSum2 returns the doubled rank sum of the positions set in side,
// ranked among the taking-part positions — side's and other's, or every
// position in [0, N) when other is nil — with each tie group at its
// doubled midrank: a group whose taking-part rows are the base+1-th to
// base+t-th has 2·base+t+1. tieSum is Σ(t³−t) over the tie groups' t, in
// ascending order, when other is non-nil, and 0 otherwise.
func (x *RankIndex) rankSum2(s *RankingScratch, side, other []uint64) (sum2 int64, tieSum float64) {
	n := x.N
	takes := func(w int) uint64 {
		if other != nil {
			return side[w] | other[w]
		}
		if rem := n - w<<6; rem < 64 {
			return 1<<uint(rem) - 1
		}
		return ^uint64(0)
	}
	if cap(s.groupRank2) < len(x.Ties) {
		s.groupRank2 = make([]int64, len(x.Ties))
	}
	groupRank2 := s.groupRank2[:len(x.Ties)]
	// below(p) counts the taking-part positions under p, for ascending p:
	// words [0, cw) hold cc of them.
	cw, cc := 0, 0
	below := func(p int) int {
		for ; cw < p>>6; cw++ {
			cc += bits.OnesCount64(takes(cw))
		}
		if p&63 == 0 {
			return cc
		}
		return cc + bits.OnesCount64(takes(cw)&(1<<uint(p&63)-1))
	}
	for g, tie := range x.Ties {
		first, last := int(tie[0]), int(tie[1])
		base, t := first, last-first+1
		if other != nil {
			base = below(first)
			t = below(last+1) - base
			if t > 1 {
				tf := float64(t)
				tieSum += tf*tf*tf - tf
			}
		}
		groupRank2[g] = int64(2*base + t + 1)
	}
	g, base := 0, 0
	for w, sw := range side {
		tw := takes(w)
		for ; sw != 0; sw &= sw - 1 {
			bit := bits.TrailingZeros64(sw)
			p := w<<6 | bit
			for g < len(x.Ties) && int(x.Ties[g][1]) < p {
				g++
			}
			if g < len(x.Ties) && int(x.Ties[g][0]) <= p {
				sum2 += groupRank2[g]
				continue
			}
			sum2 += 2*int64(base+bits.OnesCount64(tw&(1<<uint(bit)-1))) + 2
		}
		base += bits.OnesCount64(tw)
	}
	return sum2, tieSum
}

// readStats reads the value of both groups' planned statistics with one
// scan of Pos, stopped once every distinct position is found.
func (x *RankIndex) readStats(s *RankingScratch, xs []float64, ga, gb *groupStats) {
	targets := zeroed(&s.targets, (x.N+63)>>6)
	want := 0
	for _, g := range [2]*groupStats{ga, gb} {
		for _, p := range g.pos[:g.nk] {
			if bit := uint64(1) << (uint32(p) & 63); targets[p>>6]&bit == 0 {
				targets[p>>6] |= bit
				want++
			}
		}
	}
	if want == 0 {
		return
	}
	for row, p := range x.Pos {
		w := uint32(p) >> 6 // a NULL row's −1 lands past the bitmap
		if w >= uint32(len(targets)) || targets[w]&(1<<(uint32(p)&63)) == 0 {
			continue
		}
		for _, g := range [2]*groupStats{ga, gb} {
			for i := range g.pos[:g.nk] {
				if g.pos[i] == p {
					g.v[i] = xs[row]
				}
			}
		}
		if want--; want == 0 {
			return
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
