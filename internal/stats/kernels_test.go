package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/randx"
)

// referenceRanks is the comparison implementation the radix kernel must
// reproduce: a stable sort.Slice on the values themselves followed by the
// same tie-walk as RanksIdxWith. Ranks, rank sum and tie correction must
// match bit-for-bit.
func referenceRanks(xs []float64) (ranks []float64, tieSum float64) {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks = make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		if tlen := float64(j - i + 1); tlen > 1 {
			tieSum += tlen*tlen*tlen - tlen
		}
		i = j + 1
	}
	return ranks, tieSum
}

// shapeColumns builds the differential corpus, keyed by input shape: the
// degenerate sizes, small columns either side of n = 64, narrow integral
// columns (negative ones too), wide and fractional columns, and the
// IEEE-754 edges — signed zeros, infinities, the extreme finite values and
// subnormals. Small and narrow integral columns once took their own sort
// kernels, so they stay in the corpus as the radix sort's regression net.
func shapeColumns() []struct {
	name string
	xs   []float64
} {
	r := randx.New(7331)
	mk := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	negZero := math.Copysign(0, -1)
	subnormal := func() float64 {
		v := math.Float64frombits(r.Uint64() & (1<<52 - 1))
		if r.Intn(2) == 0 {
			return -v
		}
		return v
	}
	type shape = struct {
		name string
		xs   []float64
	}
	cases := []shape{
		{"empty", nil},
		{"one-value", []float64{3.5}},
		{"all-nan", mk(70, func(int) float64 { return math.NaN() })},
		{"all-equal", mk(200, func(int) float64 { return 7.25 })},
		{"all-equal-small", mk(5, func(int) float64 { return -2 })},
		{"small-normals", mk(20, func(int) float64 { return r.NormFloat64() })},
		{"small-ties", mk(48, func(int) float64 { return float64(r.Intn(3)) })},
		{"zeros-only", []float64{0, negZero, 0, negZero, negZero}},
		{"signed-zeros", mk(300, func(int) float64 {
			switch r.Intn(4) {
			case 0:
				return negZero
			case 1:
				return 0
			default:
				return float64(r.Intn(3) - 1)
			}
		})},
		{"infinities", mk(200, func(int) float64 {
			switch r.Intn(6) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			default:
				return r.NormFloat64()
			}
		})},
		{"extremes", mk(160, func(int) float64 {
			return [...]float64{
				math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
				math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				0, negZero, 1, -1,
			}[r.Intn(10)]
		})},
		{"subnormals", mk(300, func(int) float64 { return subnormal() })},
		{"subnormals-and-zeros", mk(90, func(int) float64 {
			switch r.Intn(3) {
			case 0:
				return negZero
			case 1:
				return 0
			default:
				return subnormal()
			}
		})},
		{"random-floats", mk(500, func(int) float64 { return r.NormFloat64() })},
		{"random-uniform", mk(1000, func(int) float64 { return r.Uniform(-1e6, 1e6) })},
		{"heavy-ties-frac", mk(400, func(int) float64 { return 0.5 * float64(r.Intn(5)) })},
		{"narrow-band", mk(600, func(int) float64 { return 1 + r.Float64()/1024 })},
		{"low-card-ints", mk(500, func(int) float64 { return float64(r.Intn(16)) })},
		{"dict-codes", mk(2000, func(int) float64 { return float64(r.Intn(64)) })},
		{"negative-ints", mk(300, func(int) float64 { return float64(r.Intn(41) - 20) })},
		{"negative-ints-only", mk(150, func(int) float64 { return -float64(r.Intn(9) + 1) })},
		{"int-pair", mk(256, func(i int) float64 { return float64(i & 1) })},
		{"wide-ints", mk(128, func(int) float64 { return float64(r.Intn(1 << 20)) })},
		{"huge-span-ints", mk(100, func(i int) float64 {
			if i == 0 {
				return -math.MaxFloat64
			}
			return math.MaxFloat64 * r.Float64()
		})},
	}
	// n = 63, 64, 65 straddle the size up to which small columns were once
	// comparison-sorted; each comes as ties-heavy integers and as distinct
	// floats.
	for _, n := range []int{63, 64, 65} {
		cases = append(cases,
			shape{fmt.Sprintf("ints-n=%d", n), mk(n, func(int) float64 { return float64(r.Intn(7) - 3) })},
			shape{fmt.Sprintf("floats-n=%d", n), mk(n, func(int) float64 { return r.NormFloat64() })},
		)
	}
	return cases
}

// walkTies assigns average ranks along a sorted permutation of xs — the
// tie-walk RanksIdxWith runs — writing rank[perm[i]] and returning the tie
// correction. It also fails t unless the permutation ascends in floatKey
// order (−0 strictly before +0).
func walkTies(t *testing.T, where string, xs []float64, perm []int32, rank []float64) (tieSum float64) {
	t.Helper()
	n := len(perm)
	for i := 1; i < n; i++ {
		if floatKey(xs[perm[i-1]]) > floatKey(xs[perm[i]]) {
			t.Fatalf("%s: permutation not in key order at %d", where, i)
		}
	}
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[perm[j+1]] == xs[perm[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for m := i; m <= j; m++ {
			rank[perm[m]] = avg
		}
		if tlen := float64(j - i + 1); tlen > 1 {
			tieSum += tlen*tlen*tlen - tlen
		}
		i = j + 1
	}
	return tieSum
}

// TestKernelsDifferential pins the radix kernel to the reference
// comparison ranking bit-for-bit over the shape corpus, through both entry
// points: RanksIdxWith (every value ranked) and Order (the non-NaN rows;
// the all-NaN shape must give an empty order). Each runs with a nil
// scratch, a fresh scratch, and one scratch shared across every shape and
// both entry points, so buffer reuse across columns of different sizes
// cannot leak state.
func TestKernelsDifferential(t *testing.T) {
	shared := &RankScratch{}
	for _, c := range shapeColumns() {
		n := len(c.xs)
		wantRanks, wantTie := referenceRanks(c.xs)
		var rows []int32
		var compact []float64
		for row, v := range c.xs {
			if !math.IsNaN(v) {
				rows = append(rows, int32(row))
				compact = append(compact, v)
			}
		}
		wantOrderRanks, wantOrderTie := referenceRanks(compact)
		for si, s := range []*RankScratch{nil, {}, shared} {
			where := fmt.Sprintf("%s scratch=%d", c.name, si)

			idx := make([]int32, n)
			dst := RanksIdxWith(s, make([]float64, n), idx, c.xs)
			tie := walkTies(t, where+" RanksIdxWith", c.xs, idx, make([]float64, n))
			if math.Float64bits(tie) != math.Float64bits(wantTie) {
				t.Errorf("%s RanksIdxWith: tieSum = %v, want %v", where, tie, wantTie)
			}
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(wantRanks[i]) {
					t.Fatalf("%s RanksIdxWith: rank[%d] = %v, want %v", where, i, dst[i], wantRanks[i])
				}
			}

			order := Order(s, nil, c.xs)
			if len(order) != len(rows) {
				t.Fatalf("%s Order: %d rows, want the %d non-NaN rows", where, len(order), len(rows))
			}
			byRow := make([]float64, n)
			tie = walkTies(t, where+" Order", c.xs, order, byRow)
			if math.Float64bits(tie) != math.Float64bits(wantOrderTie) {
				t.Errorf("%s Order: tieSum = %v, want %v", where, tie, wantOrderTie)
			}
			for i, row := range rows {
				if math.Float64bits(byRow[row]) != math.Float64bits(wantOrderRanks[i]) {
					t.Fatalf("%s Order: rank of row %d = %v, want %v", where, row, byRow[row], wantOrderRanks[i])
				}
			}
		}
	}
}

// TestRadixSortPermTiny pins the n < 2 guard: the kernel's pass-skip test
// reads the first key, so empty and one-element permutations must return
// before it, with or without scratch.
func TestRadixSortPermTiny(t *testing.T) {
	for _, s := range []*RankScratch{nil, {}} {
		radixSortPerm(s, nil, nil)
		radixSortPerm(s, []int32{}, []float64{1})
		one := []int32{0}
		radixSortPerm(s, one, []float64{math.Inf(-1)})
		if one[0] != 0 {
			t.Errorf("one-element permutation became %v", one)
		}
	}
	if got := Order(nil, nil, nil); len(got) != 0 {
		t.Errorf("Order of no values = %v, want empty", got)
	}
	if got := RanksIdxWith(nil, nil, nil, nil); len(got) != 0 {
		t.Errorf("RanksIdxWith of no values = %v, want empty", got)
	}
}

// TestRankingKernelsZeroAlloc asserts a warmed scratch orders, ranks and
// indexes without allocating for every fixture shape
// BenchmarkRankingKernels times, and that a query's Rank on a warmed
// ranking scratch never allocates, exact or sampled, with or without
// quantiles — the properties the CI zero-allocs benchmark gate enforces end
// to end.
func TestRankingKernelsZeroAlloc(t *testing.T) {
	r := randx.New(99)
	floats := make([]float64, 2048)
	integral := make([]float64, 2048)
	for i := range floats {
		floats[i] = r.NormFloat64()
		integral[i] = float64(r.Intn(32))
	}
	for _, c := range []struct {
		shape string
		xs    []float64
	}{{"float", floats}, {"integral", integral}, {"small", floats[:48]}} {
		s := &RankScratch{}
		dst := make([]float64, len(c.xs))
		idx := make([]int32, len(c.xs))
		RanksIdxWith(s, dst, idx, c.xs) // warm the scratch
		if allocs := testing.AllocsPerRun(10, func() {
			RanksIdxWith(s, dst, idx, c.xs)
		}); allocs != 0 {
			t.Errorf("shape=%s: ranks cost %v allocs/op with warmed scratch, want 0", c.shape, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			Order(s, idx, c.xs)
		}); allocs != 0 {
			t.Errorf("shape=%s: Order cost %v allocs/op with warmed scratch, want 0", c.shape, allocs)
		}
		var x RankIndex
		x.Build(s, c.xs)
		if allocs := testing.AllocsPerRun(10, func() {
			x.Build(s, c.xs)
		}); allocs != 0 {
			t.Errorf("shape=%s: RankIndex.Build cost %v allocs/op with warmed scratch, want 0", c.shape, allocs)
		}
		nw := (len(c.xs) + 63) / 64
		sel, rest := make([]uint64, nw), make([]uint64, nw)
		sampledSel, sampledRest := make([]uint64, nw), make([]uint64, nw)
		for i := range sel {
			sel[i], rest[i] = 0x5555555555555555, 0xaaaaaaaaaaaaaaaa
			sampledSel[i], sampledRest[i] = 0x1111111111111111, 0x2222222222222222
		}
		if rem := len(c.xs) % 64; rem != 0 {
			keep := uint64(1)<<uint(rem) - 1
			sel[nw-1] &= keep
			rest[nw-1] &= keep
			sampledSel[nw-1] &= keep
			sampledRest[nw-1] &= keep
		}
		count := func(mask []uint64) int {
			n := 0
			for _, w := range mask {
				n += bits.OnesCount64(w)
			}
			return n
		}
		rs := &RankingScratch{}
		for _, sp := range []struct {
			name string
			a, b []uint64
		}{{"exact", sel, rest}, {"sampled", sampledSel, sampledRest}} {
			na, nb := count(sp.a), count(sp.b)
			for _, quantiles := range []bool{false, true} {
				x.Rank(rs, c.xs, sp.a, sp.b, na, nb, quantiles) // warm the ranking scratch
				if allocs := testing.AllocsPerRun(10, func() {
					x.Rank(rs, c.xs, sp.a, sp.b, na, nb, quantiles)
				}); allocs != 0 {
					t.Errorf("shape=%s %s quantiles=%v: Rank cost %v allocs/op, want 0", c.shape, sp.name, quantiles, allocs)
				}
			}
		}
	}
}
