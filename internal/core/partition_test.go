package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/stats"
)

// sameBits reports bit equality, with any NaN equal to any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// walkColumn draws an n-row column of the shapes the walks must survive:
// runs of NULLs, −0 beside +0, normals over six orders of magnitude (so
// any change of summation order moves the last bits), and ±Inf when inf
// is set. allNull makes every row NULL.
func walkColumn(r *randx.Source, n int, inf, allNull bool) []float64 {
	xs := make([]float64, n)
	for i := 0; i < n; {
		switch k := r.Intn(20); {
		case allNull || k == 0:
			for run := 1 + r.Intn(70); run > 0 && i < n; run-- {
				xs[i] = math.NaN()
				i++
			}
			continue
		case k == 1 && inf:
			xs[i] = math.Inf(1 - 2*r.Intn(2))
		case k == 2:
			xs[i] = math.Copysign(0, -1)
		case k == 3:
			xs[i] = 0
		default:
			xs[i] = r.Normal(3, 2) * math.Pow(10, float64(r.Intn(7)-3))
		}
		i++
	}
	return xs
}

// copiedSplit is the reference the walks replace: the non-NULL values of
// the rows of mask, copied in ascending row order.
func copiedSplit(xs []float64, mask []uint64) []float64 {
	var out []float64
	for i, v := range xs {
		if mask[i>>6]&(1<<(uint(i)&63)) != 0 && !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// copiedPairs copies the complete cases of two columns over mask.
func copiedPairs(a, b []float64, mask []uint64) (ca, cb []float64) {
	for i := range a {
		if mask[i>>6]&(1<<(uint(i)&63)) != 0 && !math.IsNaN(a[i]) && !math.IsNaN(b[i]) {
			ca = append(ca, a[i])
			cb = append(cb, b[i])
		}
	}
	return ca, cb
}

// TestPartitionWalksMatchCopiedSplit pins every walk of the partition to
// the slice function it replaces, bit for bit, on a copied split: the row
// count against a plain count loop, the moments walk against
// stats.Summarize, and the pair walk against stats.Pearson over the
// complete cases. The columns carry NULL runs, ±Inf and signed zeros, one
// is entirely NULL, the row counts straddle the tail word, and each split
// runs with and without an approximate sample.
func TestPartitionWalksMatchCopiedSplit(t *testing.T) {
	r := randx.New(2024)
	for _, n := range []int{63, 64, 65, 4097} {
		cols := []*frame.Column{
			frame.NewNumericColumn("a", walkColumn(r, n, false, false)),
			frame.NewNumericColumn("b", walkColumn(r, n, false, false)),
			frame.NewNumericColumn("inf", walkColumn(r, n, true, false)),
			frame.NewNumericColumn("null", walkColumn(r, n, false, true)),
		}
		f, err := frame.New("walks", cols)
		if err != nil {
			t.Fatal(err)
		}
		sel, sample := frame.NewBitmap(n), frame.NewBitmap(n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				sel.Set(i)
			}
			if r.Intn(4) != 0 {
				sample.Set(i)
			}
		}
		for _, consider := range []*frame.Bitmap{nil, sample} {
			p := newPartition(n, sel, consider)
			for side, mask := range map[string][]uint64{"in": p.in, "out": p.out} {
				for i, c := range cols {
					where := fmt.Sprintf("n=%d sampled=%v side=%s col=%s", n, consider != nil, side, c.Name())
					xs, valid := c.Floats(), f.ColumnValidWords(i)
					want := copiedSplit(xs, mask)
					count := countRows(mask, valid)
					if count != len(want) {
						t.Fatalf("%s: countRows = %d, want %d", where, count, len(want))
					}
					got, ref := summarize(xs, mask, valid, count), stats.Summarize(want)
					if got.N != ref.N || !sameBits(got.Mean, ref.Mean) || !sameBits(got.Var, ref.Var) {
						t.Errorf("%s: summarize = %+v, Summarize = %+v", where, got, ref)
					}
					for j, d := range cols {
						ca, cb := copiedPairs(xs, d.Floats(), mask)
						rho, m := correlate(xs, d.Floats(), mask, valid, f.ColumnValidWords(j))
						if m != len(ca) || !sameBits(rho, stats.Pearson(ca, cb)) {
							t.Errorf("%s × %s: correlate = (%v, %d), Pearson = (%v, %d)",
								where, d.Name(), rho, m, stats.Pearson(ca, cb), len(ca))
						}
					}
				}
			}
			// The sides partition the considered rows, and nothing past n.
			considered := n
			if consider != nil {
				considered = consider.Count()
			}
			if in, out := countRows(p.in, nil), countRows(p.out, nil); in+out != considered {
				t.Errorf("n=%d sampled=%v: sides hold %d+%d rows, want %d", n, consider != nil, in, out, considered)
			}
		}
	}
}

// TestPartitionCategoricalWalks pins the categorical walks to plain loops:
// the per-code tally and the correlation ratio of a categorical × numeric
// pair over its complete cases, fed in row order, with NULLs on both
// columns.
func TestPartitionCategoricalWalks(t *testing.T) {
	r := randx.New(7)
	const n = 200
	dict := []string{"a", "b", "c", "d"}
	codes := make([]int32, n)
	for i := range codes {
		codes[i] = int32(r.Intn(len(dict)+1)) - 1 // -1 is NULL
	}
	cat, err := frame.NewCategoricalColumnFromCodes("cat", codes, dict)
	if err != nil {
		t.Fatal(err)
	}
	num := frame.NewNumericColumn("num", walkColumn(r, n, false, false))
	f, err := frame.New("cats", []*frame.Column{cat, num})
	if err != nil {
		t.Fatal(err)
	}
	sel := frame.NewBitmap(n)
	for i := 0; i < n; i += 3 {
		sel.Set(i)
	}
	p := newPartition(n, sel, nil)
	xs, vc, vn := num.Floats(), f.ColumnValidWords(0), f.ColumnValidWords(1)
	for _, mask := range [][]uint64{p.in, p.out} {
		want := make([]float64, len(dict))
		wantEta := stats.NewCorrelationRatio(len(dict))
		for i, code := range codes {
			if mask[i>>6]&(1<<(uint(i)&63)) == 0 || code < 0 {
				continue
			}
			want[code]++
			if !math.IsNaN(xs[i]) {
				wantEta.Add(code, xs[i])
			}
		}
		if got := tally(codes, mask, vc, len(dict)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("tally = %v, want %v", got, want)
		}
		got, wantE := correlationRatio(codes, xs, len(dict), mask, vc, vn), wantEta.Eta()
		if !sameBits(got.Value, wantE.Value) || got.N != wantE.N || got.Groups != wantE.Groups {
			t.Errorf("correlationRatio = %+v, want %+v", got, wantE)
		}
	}
}
