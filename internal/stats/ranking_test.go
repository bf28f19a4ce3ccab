package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestRankingAgainstDirectComputation cross-checks every Ranking field
// against independent from-scratch computations on a tie-heavy sample.
func TestRankingAgainstDirectComputation(t *testing.T) {
	a := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	b := []float64{5, 3, 5, 8, 9, 7, 9, 3}
	r := NewRanking(a, b)

	if r.NA != len(a) || r.NB != len(b) || r.HasNaN {
		t.Fatalf("sizes: %+v", r)
	}
	combined := append(append([]float64{}, a...), b...)
	wantRanks := Ranks(combined)
	sumA := 0.0
	for i := 0; i < len(a); i++ {
		sumA += wantRanks[i]
	}
	if r.RankSumA != sumA {
		t.Errorf("RankSumA = %v, want %v", r.RankSumA, sumA)
	}
	// Tie correction recomputed by sorting a copy.
	sorted := append([]float64{}, combined...)
	sort.Float64s(sorted)
	tieSum := 0.0
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[i] {
			j++
		}
		if tlen := float64(j - i + 1); tlen > 1 {
			tieSum += tlen*tlen*tlen - tlen
		}
		i = j + 1
	}
	if r.TieSum != tieSum {
		t.Errorf("TieSum = %v, want %v", r.TieSum, tieSum)
	}
	if ma := Median(a); math.Float64bits(r.MedianA) != math.Float64bits(ma) {
		t.Errorf("MedianA = %v, want %v", r.MedianA, ma)
	}
	if mb := Median(b); math.Float64bits(r.MedianB) != math.Float64bits(mb) {
		t.Errorf("MedianB = %v, want %v", r.MedianB, mb)
	}
}

// TestRankingGroupMediansMatchMedian fuzzes group sizes (odd/even, size 1)
// so the combined-order median walk is pinned to Median bit-for-bit.
func TestRankingGroupMediansMatchMedian(t *testing.T) {
	vals := []float64{0.5, 2, 2, -3, 7, 7, 7, 1.25, -0.5, 4, 11, 2}
	for na := 1; na < len(vals); na++ {
		a, b := vals[:na], vals[na:]
		r := NewRanking(a, b)
		if math.Float64bits(r.MedianA) != math.Float64bits(Median(a)) {
			t.Errorf("na=%d MedianA = %v, want %v", na, r.MedianA, Median(a))
		}
		if math.Float64bits(r.MedianB) != math.Float64bits(Median(b)) {
			t.Errorf("na=%d MedianB = %v, want %v", na, r.MedianB, Median(b))
		}
	}
}

// TestRankingNaN asserts NaN-bearing input short-circuits: HasNaN set, no
// ranking pass spent, medians NaN.
func TestRankingNaN(t *testing.T) {
	before := RankOps()
	r := NewRanking([]float64{1, math.NaN()}, []float64{3, 4})
	if !r.HasNaN {
		t.Fatal("HasNaN not set")
	}
	if RankOps() != before {
		t.Error("NaN input still paid a ranking pass")
	}
	if !math.IsNaN(r.MedianA) || !math.IsNaN(r.MedianB) {
		t.Error("medians of NaN-bearing ranking should be NaN")
	}
}

// TestRankOpsCounts pins the meter: one ranking pass per Ranks/Ranking
// call, two per Spearman, zero per SpearmanRanked.
func TestRankOpsCounts(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 1, 4, 3, 5}

	before := RankOps()
	Ranks(xs)
	if got := RankOps() - before; got != 1 {
		t.Errorf("Ranks cost %d passes, want 1", got)
	}
	before = RankOps()
	NewRanking(xs, ys)
	if got := RankOps() - before; got != 1 {
		t.Errorf("NewRanking cost %d passes, want 1", got)
	}
	before = RankOps()
	Spearman(xs, ys)
	if got := RankOps() - before; got != 2 {
		t.Errorf("Spearman cost %d passes, want 2", got)
	}
	rx, ry := Ranks(xs), Ranks(ys)
	before = RankOps()
	if got, want := SpearmanRanked(rx, ry), Spearman(xs, ys); got != want {
		t.Errorf("SpearmanRanked = %v, want %v", got, want)
	}
	if got := RankOps() - before - 2; got != 0 { // the Spearman above costs 2
		t.Errorf("SpearmanRanked cost %d passes, want 0", got)
	}
}

// sortedRef is the naive order-statistics reference the Ranking replaces:
// an ascending copy of xs, sorted on its own.
func sortedRef(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sameFloat reports bit equality, except that any two NaNs match and −0
// matches +0: when a group holds both signed zeros, neither sort orders
// them, so either may surface as the order statistic.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b)) || (a == 0 && b == 0)
}

// adversarialGroups is the differential corpus shared by the group
// quantile tests: heavy ties within and across groups, ±Inf, −0 beside
// +0, and group sizes 3, 4, 9 and 10 — one below and at each of the
// extended components' validity thresholds (quantiles need 4 per group,
// tails 10).
var adversarialGroups = []struct{ a, b []float64 }{
	{[]float64{5}, []float64{1, 2}},
	{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, []float64{2, 7, 1, 8, 2, 8}},
	{[]float64{1, 1, 1, 2, 2}, []float64{2, 2, 1, 1}},           // heavy ties across groups
	{[]float64{-1.5, 0.25, -3.75, 0.25}, []float64{0.25, 11.5}}, // interpolation hits ties
	{[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1}, []float64{2}},
	{[]float64{2, 2, 2}, []float64{2, 2, 2, 2}},
	{[]float64{math.Inf(1), 1, math.Inf(-1)}, []float64{math.Inf(1), math.Inf(1), 0, -3}},
	{[]float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 1}, []float64{0, 0, math.Copysign(0, -1)}},
	{
		[]float64{4, 4, 4, 4, 1, 1, math.Inf(-1), 4, 9},
		[]float64{4, 1, 4, math.Copysign(0, -1), 0, 4, 4, 4, math.Inf(1), 4},
	},
	{
		[]float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 8},
		[]float64{7, 6, 7, 7, 7, 7, 7, 7, 7},
	},
}

// rankGroups ranks the concatenation of a and b as NewRanking does, with
// or without quantiles.
func rankGroups(a, b []float64, quantiles bool) Ranking {
	xs := append(append([]float64(nil), a...), b...)
	maskA, maskB := make([]uint64, (len(xs)+63)/64), make([]uint64, (len(xs)+63)/64)
	for row := range xs {
		if row < len(a) {
			maskA[row>>6] |= 1 << (uint(row) & 63)
		} else {
			maskB[row>>6] |= 1 << (uint(row) & 63)
		}
	}
	var x RankIndex
	x.Build(nil, xs)
	return x.Rank(&RankingScratch{}, xs, maskA, maskB, len(a), len(b), quantiles)
}

// checkGroupQuantiles asserts that a Ranking of a and b asked for
// quantiles holds each group's quantiles at QuantileLevels bit-identical
// to sorting the group on its own (sortedRef plus Quantile), and that
// its medians are those of a Ranking that was not asked for quantiles.
func checkGroupQuantiles(t *testing.T, name string, a, b []float64) {
	t.Helper()
	r, plain := rankGroups(a, b, true), rankGroups(a, b, false)
	sa, sb := sortedRef(a), sortedRef(b)
	for i, q := range QuantileLevels {
		if want := Quantile(sa, q); !sameFloat(r.QuantilesA[i], want) {
			t.Errorf("%s group A q=%v: got %v, want %v", name, q, r.QuantilesA[i], want)
		}
		if want := Quantile(sb, q); !sameFloat(r.QuantilesB[i], want) {
			t.Errorf("%s group B q=%v: got %v, want %v", name, q, r.QuantilesB[i], want)
		}
	}
	if !sameFloat(r.MedianA, plain.MedianA) || !sameFloat(r.MedianB, plain.MedianB) ||
		!sameFloat(r.MedianA, r.QuantilesA[medianLevel]) || !sameFloat(r.MedianB, r.QuantilesB[medianLevel]) {
		t.Errorf("%s medians: with quantiles %v/%v, without %v/%v", name, r.MedianA, r.MedianB, plain.MedianA, plain.MedianB)
	}
}

// TestGroupQuantilesMatchSortedCopy asserts the index-backed group
// quantiles are bit-identical to sorting each group separately over the
// adversarial corpus, and that NewRanking fills the same quantiles.
func TestGroupQuantilesMatchSortedCopy(t *testing.T) {
	for ci, c := range adversarialGroups {
		name := fmt.Sprintf("case %d", ci)
		checkGroupQuantiles(t, name, c.a, c.b)
		r, want := NewRanking(c.a, c.b), rankGroups(c.a, c.b, true)
		if !sameQuantiles(r.QuantilesA, want.QuantilesA) || !sameQuantiles(r.QuantilesB, want.QuantilesB) {
			t.Errorf("%s: NewRanking quantiles %v/%v, Rank %v/%v", name, r.QuantilesA, r.QuantilesB, want.QuantilesA, want.QuantilesB)
		}
	}
}

// sameQuantiles compares two quantile arrays bit for bit.
func sameQuantiles(a, b [len(QuantileLevels)]float64) bool {
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestGroupQuantilesSpill pins groups so small that the levels' planned
// order statistics spill onto one another: at QuantileLevels a group of
// two to six values plans the same rank for several levels, so the plan
// must keep each rank once and in ascending order for the one selection
// pass, and the one scan must fill every level that shares a position —
// across singleton, tie-heavy and ordinary groups, and a small group whose
// positions lie in different words of the order.
func TestGroupQuantilesSpill(t *testing.T) {
	cases := []struct{ a, b []float64 }{
		{[]float64{5}, []float64{1, 2, 3}},                         // singleton group A
		{[]float64{2, 1}, []float64{3, 3}},                         // two values a side
		{[]float64{4, -1, 2}, []float64{0.5, 9, 9, 1, 7}},          // three and five
		{[]float64{2, 2, 2, 1, 1, 3, 3, 3, 3}, []float64{3, 3, 1}}, // heavy ties
		{[]float64{6, 5, 4, 3}, []float64{-2, 8, 1, 1, 0, 3}},      // four and six
		{[]float64{3.5, -1, 4.25, 1, 5, -9.5, 2, 6, 0.125}, []float64{2, 7.75, 1, 8, -2, 8}},
		{[]float64{-5, 100.5, 250}, make([]float64, 200)}, // three spread over four words
	}
	for i := range cases[len(cases)-1].b {
		cases[len(cases)-1].b[i] = float64(i)
	}
	for ci, c := range cases {
		checkGroupQuantiles(t, fmt.Sprintf("case %d", ci), c.a, c.b)
	}
}

// TestGroupQuantilesDegenerate asserts NaN-bearing rankings and empty
// groups yield NaN quantiles rather than garbage.
func TestGroupQuantilesDegenerate(t *testing.T) {
	const median = 2 // QuantileLevels[median] is 0.5
	r := NewRanking([]float64{1, math.NaN()}, []float64{2})
	if !math.IsNaN(r.QuantilesA[median]) {
		t.Error("NaN-bearing ranking produced a quantile")
	}
	r = NewRanking([]float64{1, 2, 3}, nil)
	if !math.IsNaN(r.QuantilesB[median]) {
		t.Error("empty group produced a quantile")
	}
	if r.QuantilesA[median] != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", r.QuantilesA[median])
	}
}
