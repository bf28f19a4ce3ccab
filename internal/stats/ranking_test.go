package stats

import (
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
	for i := range wantRanks {
		if r.Ranks[i] != wantRanks[i] {
			t.Fatalf("rank[%d] = %v, want %v", i, r.Ranks[i], wantRanks[i])
		}
	}
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

// TestGroupQuantilesMatchSortedCopy asserts the permutation-backed group
// quantiles are bit-identical to sorting each group separately (sortedRef
// plus Quantile), over the adversarial corpus and the full quantile range
// the extended components use.
func TestGroupQuantilesMatchSortedCopy(t *testing.T) {
	// Nine quantiles also exercises the >8 heap-fallback path of the
	// stack-buffered bookkeeping.
	qs := []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1}
	for ci, c := range adversarialGroups {
		r := NewRanking(c.a, c.b)
		gotA := make([]float64, len(qs))
		gotB := make([]float64, len(qs))
		r.QuantilesA(qs, gotA)
		r.QuantilesB(qs, gotB)
		sa, sb := sortedRef(c.a), sortedRef(c.b)
		for i, q := range qs {
			if want := Quantile(sa, q); !sameFloat(gotA[i], want) {
				t.Errorf("case %d group A q=%v: got %v, want %v", ci, q, gotA[i], want)
			}
			if want := Quantile(sb, q); !sameFloat(gotB[i], want) {
				t.Errorf("case %d group B q=%v: got %v, want %v", ci, q, gotB[i], want)
			}
		}
	}
}

// TestGroupQuantilesSpill pins the heap-spill path of groupQuantiles: more
// than 8 requested quantiles overflows the stack-buffered bookkeeping onto
// heap slices, and every spill-path position must be written before it is
// read. The quantile vector is deliberately unsorted, contains duplicate
// entries, and includes the q=0 / q=1 extremes, across singleton,
// tie-heavy, and ordinary groups.
func TestGroupQuantilesSpill(t *testing.T) {
	qs := []float64{1, 0.5, 0, 0.85, 0.25, 0.5, 0.99, 0.01, 0.75, 0.6, 0.4, 1, 0.1}
	if len(qs) <= 8 {
		t.Fatal("spill test needs more than 8 quantiles")
	}
	cases := []struct{ a, b []float64 }{
		{[]float64{5}, []float64{1, 2, 3}},                         // singleton group A
		{[]float64{2, 2, 2, 1, 1, 3, 3, 3, 3}, []float64{3, 3, 1}}, // heavy ties
		{[]float64{3.5, -1, 4.25, 1, 5, -9.5, 2, 6, 0.125}, []float64{2, 7.75, 1, 8, -2, 8}},
	}
	for ci, c := range cases {
		r := NewRanking(c.a, c.b)
		gotA := make([]float64, len(qs))
		gotB := make([]float64, len(qs))
		r.QuantilesA(qs, gotA)
		r.QuantilesB(qs, gotB)
		sa, sb := sortedRef(c.a), sortedRef(c.b)
		for i, q := range qs {
			if want := Quantile(sa, q); math.Float64bits(gotA[i]) != math.Float64bits(want) {
				t.Errorf("case %d group A qs[%d]=%v: got %v, want %v", ci, i, q, gotA[i], want)
			}
			if want := Quantile(sb, q); math.Float64bits(gotB[i]) != math.Float64bits(want) {
				t.Errorf("case %d group B qs[%d]=%v: got %v, want %v", ci, i, q, gotB[i], want)
			}
		}
	}
}

// TestGroupQuantilesDegenerate asserts NaN-bearing rankings (no Perm) and
// empty groups yield NaN quantiles rather than garbage.
func TestGroupQuantilesDegenerate(t *testing.T) {
	qs := []float64{0.5}
	dst := make([]float64, 1)
	r := NewRanking([]float64{1, math.NaN()}, []float64{2})
	r.QuantilesA(qs, dst)
	if !math.IsNaN(dst[0]) {
		t.Error("NaN-bearing ranking produced a quantile")
	}
	r = NewRanking([]float64{1, 2, 3}, nil)
	r.QuantilesB(qs, dst)
	if !math.IsNaN(dst[0]) {
		t.Error("empty group produced a quantile")
	}
	r.QuantilesA(qs, dst)
	if dst[0] != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", dst[0])
	}
}
