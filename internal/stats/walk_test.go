package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/randx"
)

// walkQuantiles are the quantiles the differential walk test compares:
// the extended components' tail and quartile positions.
var walkQuantiles = []float64{0.05, 0.25, 0.5, 0.75, 0.95}

// keyLess is a total order on NaN-free floats written independently of
// floatKey: numeric order, with −0 before +0.
func keyLess(a, b float64) bool {
	return a < b || (a == b && math.Signbit(a) && !math.Signbit(b))
}

// refWalk is what a walk must reproduce, computed naively: split the
// column into the two groups in row order — a row in neither mask takes no
// part — sort the in+out concatenation,
// assign average ranks to tie groups found by value equality, and read
// medians and quantiles off each group sorted on its own.
type refWalk struct {
	na, nb           int
	rankSumA, tieSum float64
	medA, medB       float64
	qa, qb           []float64
}

func referenceWalk(xs []float64, maskA, maskB []uint64) refWalk {
	a, b := groups(xs, maskA, maskB)
	combined := append(append([]float64(nil), a...), b...)
	idx := make([]int, len(combined))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return keyLess(combined[idx[i]], combined[idx[j]]) })
	ranks := make([]float64, len(combined))
	ref := refWalk{na: len(a), nb: len(b)}
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && combined[idx[j+1]] == combined[idx[i]] {
			j++
		}
		for k := i; k <= j; k++ {
			ranks[idx[k]] = float64(i+j)/2 + 1
		}
		if t := float64(j - i + 1); t > 1 {
			ref.tieSum += t*t*t - t
		}
		i = j + 1
	}
	for i := range a {
		ref.rankSumA += ranks[i]
	}
	quantiles := func(g []float64) (median float64, qs []float64) {
		s := append([]float64(nil), g...)
		sort.Slice(s, func(i, j int) bool { return keyLess(s[i], s[j]) })
		qs = make([]float64, len(walkQuantiles))
		if len(s) == 0 {
			for i := range qs {
				qs[i] = math.NaN()
			}
			return math.NaN(), qs
		}
		for i, q := range walkQuantiles {
			qs[i] = Quantile(s, q)
		}
		return Quantile(s, 0.5), qs
	}
	ref.medA, ref.qa = quantiles(a)
	ref.medB, ref.qb = quantiles(b)
	return ref
}

// walkColumns is the adversarial corpus, keyed by shape: heavy ties, ±Inf,
// −0 beside +0 and NULL rows at non-NULL counts from 1 to either side of
// 64 (one selection word), narrow and wide integral columns, the IEEE-754
// extremes, and the degenerate columns — empty, one value, all equal, all
// NULL.
func walkColumns() []struct {
	name string
	xs   []float64
} {
	r := randx.New(4242)
	col := func(nonNull int, nullEvery int, f func() float64) []float64 {
		var xs []float64
		for k := 0; k < nonNull; {
			if nullEvery > 0 && len(xs)%nullEvery == nullEvery-1 {
				xs = append(xs, math.NaN())
				continue
			}
			xs = append(xs, f())
			k++
		}
		return xs
	}
	adversarial := func() float64 {
		switch r.Intn(8) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return 0
		default:
			return float64(r.Intn(5)) / 2
		}
	}
	extreme := func() float64 {
		return [...]float64{
			math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.Float64frombits(1<<52 - 1), 0, math.Copysign(0, -1), 1,
		}[r.Intn(10)]
	}
	type shape = struct {
		name string
		xs   []float64
	}
	var cols []shape
	for _, n := range []int{1, 2, 5, 63, 64, 65, 130} {
		cols = append(cols, shape{fmt.Sprintf("adversarial-%d", n), col(n, 5, adversarial)})
	}
	return append(cols,
		shape{"narrow-integral-ties", col(500, 7, func() float64 { return float64(r.Intn(12) - 4) })},
		shape{"wide-integral", col(2000, 0, func() float64 { return float64(r.Intn(9000)) })},
		shape{"normals", col(700, 3, func() float64 { return r.NormFloat64() })},
		shape{"extremes", col(150, 4, extreme)},
		shape{"all-equal", col(90, 6, func() float64 { return 3 })},
		shape{"empty", nil},
		shape{"one-value", []float64{math.NaN(), -1.5}},
		shape{"all-null", []float64{math.NaN(), math.NaN(), math.NaN()}},
	)
}

// groups copies the non-NaN values of the rows of each mask, in row order.
func groups(xs []float64, maskA, maskB []uint64) (a, b []float64) {
	bit := func(words []uint64, r int) bool { return words[r>>6]&(1<<(uint(r)&63)) != 0 }
	for r, v := range xs {
		switch {
		case math.IsNaN(v):
		case bit(maskA, r):
			a = append(a, v)
		case bit(maskB, r):
			b = append(b, v)
		}
	}
	return a, b
}

// walkSplit is one pair of group masks a column is walked under.
type walkSplit struct {
	a, b    []uint64
	sampled bool
}

// walkSplits returns the group masks a column is walked under: selections
// of no row, one row, all rows but one, every row and a random half, each
// against its complement over every row and over a random sample, whose
// unsampled rows lie in neither mask.
func walkSplits(r *randx.Source, xs []float64) []walkSplit {
	n := len(xs)
	words := func(pick func(row int) bool) []uint64 {
		w := make([]uint64, (n+63)/64)
		for row := 0; row < n; row++ {
			if pick(row) {
				w[row>>6] |= 1 << (uint(row) & 63)
			}
		}
		return w
	}
	sample := words(func(int) bool { return r.Intn(10) < 7 })
	var splits []walkSplit
	for _, consider := range [][]uint64{nil, sample} {
		// The row a one-row (or all-but-one) selection singles out: a
		// non-NULL row the walk takes part in, when there is one.
		single := -1
		for row := n - 1; row >= 0; row-- {
			if !math.IsNaN(xs[row]) && (consider == nil || consider[row>>6]&(1<<(uint(row)&63)) != 0) {
				single = row
				break
			}
		}
		half := words(func(int) bool { return r.Intn(2) == 0 })
		for _, sel := range [][]uint64{
			words(func(int) bool { return false }),
			words(func(row int) bool { return row == single }),
			words(func(row int) bool { return row != single }),
			words(func(int) bool { return true }),
			half,
		} {
			sp := walkSplit{a: make([]uint64, len(sel)), b: make([]uint64, len(sel)), sampled: consider != nil}
			for row := 0; row < n; row++ {
				w, bit := row>>6, uint64(1)<<(uint(row)&63)
				if consider != nil && consider[w]&bit == 0 {
					continue
				}
				if sel[w]&bit != 0 {
					sp.a[w] |= bit
				} else {
					sp.b[w] |= bit
				}
			}
			splits = append(splits, sp)
		}
	}
	return splits
}

// TestOrderRankingMatchesReference pins the walk of a column order to the
// sort-the-concatenation reference bit for bit — group sizes, rank sum,
// tie correction, medians and the extended quantiles — over the
// adversarial corpus and every split shape, with the order built on a nil,
// a fresh and a shared scratch. NewRanking over the same groups must agree
// too: it runs the same walk.
func TestOrderRankingMatchesReference(t *testing.T) {
	r := randx.New(99)
	eq := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	shared := &RankScratch{}
	for _, c := range walkColumns() {
		orders := map[string][]int32{
			"scratch=nil":    Order(nil, nil, c.xs),
			"scratch=fresh":  Order(&RankScratch{}, nil, c.xs),
			"scratch=shared": Order(shared, nil, c.xs),
		}
		for si, sp := range walkSplits(r, c.xs) {
			want := referenceWalk(c.xs, sp.a, sp.b)
			check := func(how string, got Ranking) {
				t.Helper()
				where := fmt.Sprintf("%s split %d (sampled=%v) %s", c.name, si, sp.sampled, how)
				if got.NA != want.na || got.NB != want.nb || got.HasNaN {
					t.Fatalf("%s: sizes (%d,%d,nan=%v), want (%d,%d)", where, got.NA, got.NB, got.HasNaN, want.na, want.nb)
				}
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"RankSumA", got.RankSumA, want.rankSumA},
					{"TieSum", got.TieSum, want.tieSum},
					{"MedianA", got.MedianA, want.medA},
					{"MedianB", got.MedianB, want.medB},
				} {
					if !eq(f.got, f.want) {
						t.Errorf("%s: %s = %v, want %v", where, f.name, f.got, f.want)
					}
				}
				qa, qb := make([]float64, len(walkQuantiles)), make([]float64, len(walkQuantiles))
				got.QuantilesA(walkQuantiles, qa)
				got.QuantilesB(walkQuantiles, qb)
				for i, q := range walkQuantiles {
					if !eq(qa[i], want.qa[i]) {
						t.Errorf("%s: QuantilesA(%v) = %v, want %v", where, q, qa[i], want.qa[i])
					}
					if !eq(qb[i], want.qb[i]) {
						t.Errorf("%s: QuantilesB(%v) = %v, want %v", where, q, qb[i], want.qb[i])
					}
				}
			}
			for name, o := range orders {
				check(name, OrderRanking(c.xs, o, sp.a, sp.b, want.na, want.nb))
			}
			check("NewRanking", NewRanking(groups(c.xs, sp.a, sp.b)))
		}
	}
}

// TestOrderRankingRejectsWrongSizes asserts the walk refuses group sizes
// its own membership counts contradict instead of misplacing the medians.
func TestOrderRankingRejectsWrongSizes(t *testing.T) {
	xs := []float64{3, 1, 2, math.NaN(), 5}
	order := Order(nil, nil, xs)
	sel, rest := []uint64{0b00011}, []uint64{0b11100}
	defer func() {
		if recover() == nil {
			t.Error("mismatched sizes did not panic")
		}
	}()
	OrderRanking(xs, order, sel, rest, 2, 3)
}

// TestOrderSkipsNulls pins the order's shape: the non-NaN rows only, in
// ascending value order with −0 before +0, one ranking pass.
func TestOrderSkipsNulls(t *testing.T) {
	xs := []float64{2, math.NaN(), 0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), 1}
	before := RankOps()
	got := Order(nil, nil, xs)
	if RankOps()-before != 1 {
		t.Errorf("Order cost %d ranking passes, want 1", RankOps()-before)
	}
	want := []int32{4, 3, 2, 6, 0}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Order = %v, want %v", got, want)
	}
}
