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

// walkRanking is the reference Rank replaced, kept here to pin it: the
// two-group Ranking of column xs by one linear walk of its sort order
// (Order), with each group's quantiles at QuantileLevels read by one more
// walk per group. Row r of the order is in group A when mask a has bit r
// set, in group B when mask b has, and takes no part when neither has. The
// open tie group starts at position pos and holds ga rows of group A; gv is
// its value (NaN before the first row, so the first row opens a group).
// Closed, a group of gn = seen−pos rows holds ranks pos+1 … pos+gn, so each
// member's doubled rank is 2·pos+gn+1.
func walkRanking(xs []float64, order []int32, a, b []uint64, na, nb int) Ranking {
	r := Ranking{NA: na, NB: nb}
	in := func(mask []uint64, row int32) int64 {
		if mask[row>>6]&(1<<(uint32(row)&63)) != 0 {
			return 1
		}
		return 0
	}
	gv := math.NaN()
	var seen, pos, ga, sum2, nA, nB int64
	closeGroup := func() {
		gn := seen - pos
		sum2 += ga * (2*pos + gn + 1)
		if gn > 1 {
			t := float64(gn)
			r.TieSum += t*t*t - t
		}
	}
	for _, row := range order {
		inA, inB := in(a, row), in(b, row)
		if inA|inB == 0 {
			continue
		}
		if v := xs[row]; v != gv {
			closeGroup()
			gv, pos, ga = v, seen, 0
		}
		ga += inA
		nA += inA
		nB += inB
		seen++
	}
	closeGroup()
	if int(nA) != na || int(nB) != nb {
		panic("walkRanking: group sizes disagree with the split")
	}
	r.RankSumA = float64(sum2) / 2
	half := []float64{0.5}
	var med [1]float64
	walkQuantilesOf(xs, order, a, na, half, med[:])
	r.MedianA = med[0]
	walkQuantilesOf(xs, order, b, nb, half, med[:])
	r.MedianB = med[0]
	walkQuantilesOf(xs, order, a, na, QuantileLevels[:], r.QuantilesA[:])
	walkQuantilesOf(xs, order, b, nb, QuantileLevels[:], r.QuantilesB[:])
	return r
}

// walkQuantilesOf fills dst[i] with the qs[i]-th type-7 quantile of the n
// rows of mask, walking the order and reading the planned order
// statistics as their members pass.
func walkQuantilesOf(xs []float64, order []int32, mask []uint64, n int, qs, dst []float64) {
	if n == 0 {
		for i := range dst {
			dst[i] = math.NaN()
		}
		return
	}
	los, his := make([]int, len(qs)), make([]int, len(qs))
	fracs, vlo, vhi := make([]float64, len(qs)), make([]float64, len(qs)), make([]float64, len(qs))
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
	}
	seen := -1
	for _, row := range order {
		if mask[row>>6]&(1<<(uint32(row)&63)) == 0 {
			continue
		}
		seen++
		for i := range qs {
			if los[i] == seen {
				vlo[i] = xs[row]
			}
			if his[i] == seen {
				vhi[i] = xs[row]
			}
		}
	}
	for i := range qs {
		switch {
		case his[i] < 0:
			dst[i] = vlo[i]
		default:
			dst[i] = vlo[i]*(1-fracs[i]) + vhi[i]*fracs[i]
		}
	}
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

// TestOrderRankingMatchesReference pins Rank on a column's RankIndex to
// the sort-the-concatenation reference bit for bit — group sizes, rank
// sum, tie correction, medians and the extended quantiles — over the
// adversarial corpus and every split shape, with the index built on a nil,
// a fresh and a shared scratch and ranked on a fresh and a shared ranking
// scratch. NewRanking over the same groups and the order walk Rank
// replaced (walkRanking) must agree too.
func TestOrderRankingMatchesReference(t *testing.T) {
	r := randx.New(99)
	eq := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	shared, sharedRank := &RankScratch{}, &RankingScratch{}
	for _, c := range walkColumns() {
		var fromNil, fromFresh, fromShared RankIndex
		fromNil.Build(nil, c.xs)
		fromFresh.Build(&RankScratch{}, c.xs)
		fromShared.Build(shared, c.xs)
		indexes := map[string]*RankIndex{"scratch=nil": &fromNil, "scratch=fresh": &fromFresh, "scratch=shared": &fromShared}
		order := Order(nil, nil, c.xs)
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
				for i, q := range walkQuantiles {
					if !eq(got.QuantilesA[i], want.qa[i]) {
						t.Errorf("%s: QuantilesA(%v) = %v, want %v", where, q, got.QuantilesA[i], want.qa[i])
					}
					if !eq(got.QuantilesB[i], want.qb[i]) {
						t.Errorf("%s: QuantilesB(%v) = %v, want %v", where, q, got.QuantilesB[i], want.qb[i])
					}
				}
			}
			for name, x := range indexes {
				check(name+" rank=fresh", x.Rank(&RankingScratch{}, c.xs, sp.a, sp.b, want.na, want.nb, true))
				check(name+" rank=shared", x.Rank(sharedRank, c.xs, sp.a, sp.b, want.na, want.nb, true))
			}
			check("walk", walkRanking(c.xs, order, sp.a, sp.b, want.na, want.nb))
			check("NewRanking", NewRanking(groups(c.xs, sp.a, sp.b)))
		}
	}
}

// TestOrderRankingRejectsWrongSizes asserts Rank refuses group sizes its
// own membership counts contradict instead of misplacing the medians, both
// when the sizes claim an exact split (one group is visited) and when they
// claim a sample (both are).
func TestOrderRankingRejectsWrongSizes(t *testing.T) {
	xs := []float64{3, 1, 2, math.NaN(), 5}
	var x RankIndex
	x.Build(nil, xs)
	sel, rest := []uint64{0b00011}, []uint64{0b11100}
	for _, sizes := range [][2]int{{2, 3}, {1, 3}, {3, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sizes %v did not panic", sizes)
				}
			}()
			x.Rank(&RankingScratch{}, xs, sel, rest, sizes[0], sizes[1], true)
		}()
	}
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

// floatRankSums is the float accumulation the integer rank sum replaces: each tie group, closed in walk order, adds ga·(pos + (gn+1)/2)
// to the rank sum and t³−t to the tie correction, both in float64.
func floatRankSums(xs []float64, order []int32, a, b []uint64) (rankSumA, tieSum float64) {
	var gv float64
	gn, ga, pos := 0, 0, 0
	closeGroup := func() {
		rankSumA += float64(ga) * (float64(pos) + float64(gn+1)/2)
		if t := float64(gn); gn > 1 {
			tieSum += t*t*t - t
		}
		pos += gn
	}
	for _, row := range order {
		w, bit := row>>6, uint64(1)<<(uint32(row)&63)
		inA := a[w]&bit != 0
		if !inA && b[w]&bit == 0 {
			continue
		}
		v := xs[row]
		if gn > 0 && v != gv {
			closeGroup()
			gn, ga = 0, 0
		}
		if gn == 0 {
			gv = v
		}
		gn++
		if inA {
			ga++
		}
	}
	if gn > 0 {
		closeGroup()
	}
	return rankSumA, tieSum
}

// TestOrderRankingRankSumExact is the exactness rail of Rank's integer
// rank sum: on a column of 2¹⁷+37 rows that mixes one tie group of a quarter of
// the rows, runs of −0 and +0 (one tie group), NULLs and distinct values,
// RankSumA and TieSum must equal floatRankSums bit for bit under half
// splits (a random half and the first half of the rows) and under the
// same splits restricted to a random sample. At this size both sums are
// exact, so any difference is a slip in the integer arithmetic.
func TestOrderRankingRankSumExact(t *testing.T) {
	const n = 1<<17 + 37
	r := randx.New(17)
	xs := make([]float64, n)
	for i := range xs {
		switch k := r.Intn(16); {
		case k < 4:
			xs[i] = 2.5
		case k == 4:
			xs[i] = math.Copysign(0, -1)
		case k == 5:
			xs[i] = 0
		case k == 6:
			xs[i] = math.NaN()
		default:
			xs[i] = float64(i) + r.Float64()
		}
	}
	order := Order(nil, nil, xs)
	var x RankIndex
	x.Build(nil, xs)
	words := func(pick func(row int) bool) []uint64 {
		w := make([]uint64, (n+63)/64)
		for row := 0; row < n; row++ {
			if pick(row) {
				w[row>>6] |= 1 << (uint(row) & 63)
			}
		}
		return w
	}
	count := func(mask []uint64) int {
		c := 0
		for _, row := range order {
			if mask[row>>6]&(1<<(uint32(row)&63)) != 0 {
				c++
			}
		}
		return c
	}
	sample := words(func(int) bool { return r.Intn(10) < 7 })
	randomHalf := words(func(int) bool { return r.Intn(2) == 0 })
	firstHalf := words(func(row int) bool { return row < n/2 })
	for _, sampled := range []bool{false, true} {
		for name, sel := range map[string][]uint64{"random-half": randomHalf, "first-half": firstHalf} {
			a, b := make([]uint64, len(sel)), make([]uint64, len(sel))
			for w := range sel {
				keep := ^uint64(0)
				if sampled {
					keep = sample[w]
				}
				if rem := n - w<<6; rem < 64 {
					keep &= 1<<uint(rem) - 1
				}
				a[w], b[w] = sel[w]&keep, ^sel[w]&keep
			}
			got := x.Rank(&RankingScratch{}, xs, a, b, count(a), count(b), false)
			wantW, wantT := floatRankSums(xs, order, a, b)
			if math.Float64bits(got.RankSumA) != math.Float64bits(wantW) || math.Float64bits(got.TieSum) != math.Float64bits(wantT) {
				t.Errorf("%s sampled=%v: (RankSumA, TieSum) = (%v, %v), float accumulation (%v, %v)",
					name, sampled, got.RankSumA, got.TieSum, wantW, wantT)
			}
		}
	}
}

// FuzzRanking holds Rank against the order walk it replaced (walkRanking)
// bit for bit — rank sum, tie correction, medians and the quantiles at
// QuantileLevels — on fuzzed columns. Each byte is one row: its low three
// bits pick a value from a tie-heavy alphabet with −0 beside +0, ±Inf and
// NULL (NaN), bit 3 puts the row in the selection, and bit 4 leaves it out
// of the sample when mode's bit 0 asks for a sampled split. Mode's next
// two bits replace the selection by none of the rows, by one row, or by
// all rows but one. One scratch ranks the split and then its swap, so a
// reused scratch is checked too. On an exact split, RankMarked from the
// smaller group's positions marked outside Rank must return Rank's
// Ranking bit for bit.
func FuzzRanking(f *testing.F) {
	f.Add([]byte{0x00, 0x09, 0x01, 0x1b, 0x22, 0x0c, 0x07, 0xff, 0x13, 0x45, 0x2d, 0x0e}, uint8(0))
	f.Add([]byte{0x00, 0x09, 0x01, 0x1b, 0x22, 0x0c, 0x07, 0xff, 0x13, 0x45, 0x2d, 0x0e}, uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(3))
	f.Add([]byte{0x80, 0x81, 0x80, 0x81, 0x88, 0x89, 0x00, 0x01}, uint8(4))
	f.Add([]byte{0x03, 0x0b, 0x13, 0x1b}, uint8(7))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		n := len(data)
		xs := make([]float64, n)
		sel, keep := make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
		for row, c := range data {
			xs[row] = [8]float64{math.Copysign(0, -1), 0, math.NaN(), 1, -2.5, math.Inf(1), math.Inf(-1), float64(c >> 5)}[c&7]
			bit := uint64(1) << (uint(row) & 63)
			if c&8 != 0 {
				sel[row>>6] |= bit
			}
			if mode&1 == 0 || c&16 == 0 {
				keep[row>>6] |= bit
			}
		}
		// The row a one-row selection (or complement) singles out: the
		// last ranked row of the sample.
		single := -1
		for row := n - 1; row >= 0 && single < 0; row-- {
			if !math.IsNaN(xs[row]) && keep[row>>6]&(1<<(uint(row)&63)) != 0 {
				single = row
			}
		}
		for row := 0; row < n; row++ {
			bit := uint64(1) << (uint(row) & 63)
			switch (mode >> 1) & 3 {
			case 1:
				sel[row>>6] &^= bit
			case 2, 3:
				if (row == single) == ((mode>>1)&3 == 2) {
					sel[row>>6] |= bit
				} else {
					sel[row>>6] &^= bit
				}
			}
		}
		a, b := make([]uint64, len(sel)), make([]uint64, len(sel))
		for w := range sel {
			a[w], b[w] = sel[w]&keep[w], ^sel[w]&keep[w]
		}
		if rem := n % 64; rem != 0 {
			b[len(b)-1] &= 1<<uint(rem) - 1
		}
		order := Order(nil, nil, xs)
		count := func(mask []uint64) int {
			c := 0
			for _, row := range order {
				if mask[row>>6]&(1<<(uint32(row)&63)) != 0 {
					c++
				}
			}
			return c
		}
		na, nb := count(a), count(b)
		var x RankIndex
		x.Build(nil, xs)
		s := &RankingScratch{}
		same := func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }
		for _, sp := range []struct {
			a, b   []uint64
			ga, gb int
		}{{b, a, nb, na}, {a, b, na, nb}} {
			ga, gb := sp.ga, sp.gb
			got := x.Rank(s, xs, sp.a, sp.b, ga, gb, true)
			want := walkRanking(xs, order, sp.a, sp.b, ga, gb)
			ok := same(got.RankSumA, want.RankSumA) && same(got.TieSum, want.TieSum) &&
				same(got.MedianA, want.MedianA) && same(got.MedianB, want.MedianB)
			for i := range QuantileLevels {
				ok = ok && same(got.QuantilesA[i], want.QuantilesA[i]) && same(got.QuantilesB[i], want.QuantilesB[i])
			}
			if !ok || got.NA != ga || got.NB != gb {
				t.Fatalf("xs=%v mode=%d (na,nb)=(%d,%d):\nRank %+v\nwalk %+v", xs, mode, ga, gb, got, want)
			}
			if ga+gb != x.N {
				continue
			}
			// An exact split ranks the same from the smaller group's
			// positions marked outside Rank.
			small := sp.a
			if ga > gb {
				small = sp.b
			}
			marks := make([]uint64, (x.N+63)/64)
			var sum int64
			for row, p := range x.Pos {
				if p >= 0 && small[row>>6]&(1<<(uint(row)&63)) != 0 {
					marks[p>>6] |= 1 << (uint32(p) & 63)
					sum += int64(p)
				}
			}
			marked := x.RankMarked(s, xs, marks, sum, ga, gb, true)
			ok = same(marked.RankSumA, got.RankSumA) && same(marked.TieSum, got.TieSum) &&
				same(marked.MedianA, got.MedianA) && same(marked.MedianB, got.MedianB)
			for i := range QuantileLevels {
				ok = ok && same(marked.QuantilesA[i], got.QuantilesA[i]) && same(marked.QuantilesB[i], got.QuantilesB[i])
			}
			if !ok || marked.NA != ga || marked.NB != gb {
				t.Fatalf("xs=%v mode=%d (na,nb)=(%d,%d):\nRankMarked %+v\nRank       %+v", xs, mode, ga, gb, marked, got)
			}
		}
	})
}
