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
// count against a plain count loop, a one-column block's moments walk
// against stats.Summarize of each side, and the paired pair walk against
// stats.Pearson over each side's complete cases. The columns carry NULL
// runs, ±Inf and signed zeros, one is entirely NULL, the row counts
// straddle the tail word, and each split runs with and without an
// approximate sample. Besides a random third, the selections single out
// one row, all rows but one and no row, so one side holds fewer than two
// rows (a NaN variance and correlation) while the other is full.
//
// The block walk runs on two groups of nine columns that share one
// validity mask — NULL-free ones, and ones whose NULLs are column a's —
// with ±Inf in every other column, at every width from one to nine, so
// every remainder of a block of four is walked (checkBlockWalk).
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
		groups := map[string][][]float64{"null-free": nil, "shared-nulls": nil}
		g := randx.New(uint64(n))
		for k := 0; k < 9; k++ {
			free := walkColumn(g, n, k%2 == 1, false)
			shared := make([]float64, n)
			for i, v := range free {
				if math.IsNaN(v) {
					free[i] = g.Normal(0, 1)
				}
				shared[i] = free[i]
				if math.IsNaN(cols[0].Floats()[i]) {
					shared[i] = math.NaN()
				}
			}
			groups["null-free"] = append(groups["null-free"], free)
			groups["shared-nulls"] = append(groups["shared-nulls"], shared)
		}
		third, sample := frame.NewBitmap(n), frame.NewBitmap(n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				third.Set(i)
			}
			if r.Intn(4) != 0 {
				sample.Set(i)
			}
		}
		// The last row column a holds (and the sample keeps), so the
		// one-row selections leave one row on a side of column a.
		single := n - 1
		for single >= 0 && (math.IsNaN(cols[0].Floats()[single]) || !sample.Get(single)) {
			single--
		}
		if single < 0 {
			t.Fatalf("n=%d: column a has no sampled non-NULL row", n)
		}
		one, allButOne := frame.NewBitmap(n), frame.NewBitmap(n)
		one.Set(single)
		for i := 0; i < n; i++ {
			if i != single {
				allButOne.Set(i)
			}
		}
		sels := map[string]*frame.Bitmap{"third": third, "one": one, "all-but-one": allButOne, "none": frame.NewBitmap(n)}
		for selName, sel := range sels {
			for _, consider := range []*frame.Bitmap{nil, sample} {
				p := newPartition(n, sel, consider)
				for i, c := range cols {
					where := fmt.Sprintf("n=%d sel=%s sampled=%v col=%s", n, selName, consider != nil, c.Name())
					xs, valid := c.Floats(), f.ColumnValidWords(i)
					wantIn, wantOut := copiedSplit(xs, p.in), copiedSplit(xs, p.out)
					nIn, nOut := countRows(p.in, valid), countRows(p.out, valid)
					if nIn != len(wantIn) || nOut != len(wantOut) {
						t.Fatalf("%s: countRows = %d/%d, want %d/%d", where, nIn, nOut, len(wantIn), len(wantOut))
					}
					mIn, mOut := summarizePair(xs, p.in, p.out, valid, nIn, nOut)
					gotIn, gotOut := mIn.summary(), mOut.summary()
					for side, pair := range map[string][2]stats.Summary{
						"in":  {gotIn, stats.Summarize(wantIn)},
						"out": {gotOut, stats.Summarize(wantOut)},
					} {
						got, ref := pair[0], pair[1]
						if got.N != ref.N || !sameBits(got.Mean, ref.Mean) || !sameBits(got.Var, ref.Var) {
							t.Errorf("%s side=%s: one-column walk = %+v, Summarize = %+v", where, side, got, ref)
						}
					}
					for j, d := range cols {
						rIn, mIn, rOut, mOut := correlatePair(xs, d.Floats(), p.in, p.out, valid, f.ColumnValidWords(j))
						for _, side := range []struct {
							name string
							r    float64
							m    int
							mask []uint64
						}{{"in", rIn, mIn, p.in}, {"out", rOut, mOut, p.out}} {
							ca, cb := copiedPairs(xs, d.Floats(), side.mask)
							if side.m != len(ca) || !sameBits(side.r, stats.Pearson(ca, cb)) {
								t.Errorf("%s side=%s × %s: correlatePair = (%v, %d), Pearson = (%v, %d)",
									where, side.name, d.Name(), side.r, side.m, stats.Pearson(ca, cb), len(ca))
							}
						}
					}
				}
				for name, xs := range groups {
					for width := 1; width <= len(xs); width++ {
						where := fmt.Sprintf("n=%d sel=%s sampled=%v group=%s width=%d", n, selName, consider != nil, name, width)
						checkBlockWalk(t, where, xs[:width], p)
					}
				}
				// The sides partition the considered rows, and nothing past n.
				considered := n
				if consider != nil {
					considered = consider.Count()
				}
				if in, out := countRows(p.in, nil), countRows(p.out, nil); in+out != considered {
					t.Errorf("n=%d sel=%s sampled=%v: sides hold %d+%d rows, want %d", n, selName, consider != nil, in, out, considered)
				}
			}
		}
	}
}

// validWords returns the non-NULL (non-NaN) words of the columns xs,
// which must all have the same NULLs.
func validWords(tb testing.TB, xs [][]float64) []uint64 {
	valid := make([]uint64, (len(xs[0])+63)/64)
	for i, v := range xs[0] {
		if !math.IsNaN(v) {
			valid[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	for _, c := range xs[1:] {
		for i, v := range c {
			if math.IsNaN(v) != math.IsNaN(xs[0][i]) {
				tb.Fatalf("columns differ in NULLs at row %d", i)
			}
		}
	}
	return valid
}

// sameRanking reports whether two Rankings agree bit for bit.
func sameRanking(a, b stats.Ranking) bool {
	ok := a.NA == b.NA && a.NB == b.NB && a.HasNaN == b.HasNaN &&
		sameBits(a.RankSumA, b.RankSumA) && sameBits(a.TieSum, b.TieSum) &&
		sameBits(a.MedianA, b.MedianA) && sameBits(a.MedianB, b.MedianB)
	for i := range a.QuantilesA {
		ok = ok && sameBits(a.QuantilesA[i], b.QuantilesA[i]) && sameBits(a.QuantilesB[i], b.QuantilesB[i])
	}
	return ok
}

// checkBlockWalk splits columns xs, which share one validity mask, as the
// engine walks a table's columns — blocks of blockLanes on one reused
// scratch, each column ranked from its index with quantiles — and holds
// every result to its reference on a copied split, bit for bit: each
// lane's Summaries to stats.Summarize, its Ranking (marked in the walk on
// an exact split) to RankIndex.Rank on a fresh scratch, and each pair's
// correlation from the kept moments (correlateKept) to stats.Pearson over
// the pair's complete cases, as is its count.
func checkBlockWalk(tb testing.TB, where string, xs [][]float64, p partition) {
	tb.Helper()
	valid := validWords(tb, xs)
	ranks := make([]stats.RankIndex, len(xs))
	for l := range xs {
		ranks[l].Build(nil, xs[l])
	}
	nIn, nOut := countRows(p.in, valid), countRows(p.out, valid)
	got := make([]laneSplit, len(xs))
	var s SplitScratch
	for lo := 0; lo < len(xs); lo += blockLanes {
		hi := min(lo+blockLanes, len(xs))
		var k block
		k.fill(xs[lo:hi]...)
		var kr [blockLanes]*stats.RankIndex
		for l := lo; l < hi; l++ {
			kr[l-lo] = &ranks[l]
		}
		res := k.split(p.in, p.out, valid, nIn, nOut, &kr, true, &s)
		copy(got[lo:hi], res[:hi-lo])
	}
	for l, x := range xs {
		for _, side := range []struct {
			name string
			got  moments
			mask []uint64
		}{{"in", got[l].in, p.in}, {"out", got[l].out, p.out}} {
			g, ref := side.got.summary(), stats.Summarize(copiedSplit(x, side.mask))
			if g.N != ref.N || !sameBits(g.Mean, ref.Mean) || !sameBits(g.Var, ref.Var) {
				tb.Errorf("%s lane %d side=%s: block walk = %+v, Summarize = %+v", where, l, side.name, g, ref)
			}
		}
		if want := ranks[l].Rank(&stats.RankingScratch{}, x, p.in, p.out, nIn, nOut, true); !sameRanking(got[l].r, want) {
			tb.Errorf("%s lane %d: block Ranking = %+v, Rank = %+v", where, l, got[l].r, want)
		}
		for m := l + 1; m < len(xs); m++ {
			rIn, mIn, rOut, mOut := correlateKept(x, xs[m], p.in, p.out, valid, got[l].in, got[l].out, got[m].in, got[m].out)
			for _, side := range []struct {
				name string
				r    float64
				m    int
				mask []uint64
			}{{"in", rIn, mIn, p.in}, {"out", rOut, mOut, p.out}} {
				ca, cb := copiedPairs(x, xs[m], side.mask)
				if side.m != len(ca) || !sameBits(side.r, stats.Pearson(ca, cb)) {
					tb.Errorf("%s side=%s lanes %d×%d: correlateKept = (%v, %d), Pearson = (%v, %d)",
						where, side.name, l, m, side.r, side.m, stats.Pearson(ca, cb), len(ca))
				}
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

// FuzzColumnBlock holds the block walk to its references on a copied
// split (checkBlockWalk) on fuzzed columns. lanes picks one to nine
// columns. Each byte of data is one row: its low three bits pick the
// first column's value from a tie-heavy alphabet with −0 beside +0 and
// ±Inf, and the other columns step through the alphabet at strides of
// their own; bit 3 puts the row in the selection; bit 4 leaves it out of
// the sample when mode's bit 0 asks for a sampled split; bit 5 makes the
// row NULL in every column when mode's bit 1 asks for NULLs. Mode's next
// two bits replace the selection by none of the rows, by one row, or by
// all rows but one.
func FuzzColumnBlock(f *testing.F) {
	f.Add([]byte{0x00, 0x09, 0x01, 0x1b, 0x22, 0x0c, 0x07, 0xff, 0x13, 0x45, 0x2d, 0x0e}, uint8(3), uint8(0))
	f.Add([]byte{0x00, 0x09, 0x01, 0x1b, 0x22, 0x0c, 0x07, 0xff, 0x13, 0x45, 0x2d, 0x0e}, uint8(8), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(4), uint8(6))
	f.Add([]byte("a block of columns walks every side's rows once for four lanes of sums"), uint8(6), uint8(10))
	f.Add([]byte{0x80, 0x81, 0x80, 0x81, 0x88, 0x89, 0x00, 0x01}, uint8(1), uint8(14))
	f.Add([]byte{}, uint8(5), uint8(1))
	alphabet := [8]float64{math.Copysign(0, -1), 0, 1, -2.5, math.Inf(1), math.Inf(-1), 3, 1e300}
	f.Fuzz(func(t *testing.T, data []byte, lanes, mode uint8) {
		if len(data) > 1<<11 {
			data = data[:1<<11]
		}
		n := len(data)
		xs := make([][]float64, 1+int(lanes)%9)
		for l := range xs {
			xs[l] = make([]float64, n)
			for row, c := range data {
				xs[l][row] = alphabet[(int(c)+l*(row%5+1))&7]
				if mode&2 != 0 && c&32 != 0 {
					xs[l][row] = math.NaN()
				}
			}
		}
		sel, sample := frame.NewBitmap(n), frame.NewBitmap(n)
		single := -1 // the last non-NULL row of the sample
		for row, c := range data {
			if c&8 != 0 {
				sel.Set(row)
			}
			if mode&1 == 0 || c&16 == 0 {
				sample.Set(row)
				if !math.IsNaN(xs[0][row]) {
					single = row
				}
			}
		}
		if pick := (mode >> 2) & 3; pick != 0 {
			sel = frame.NewBitmap(n)
			for row := 0; row < n; row++ {
				if pick == 2 && row == single || pick == 3 && row != single {
					sel.Set(row)
				}
			}
		}
		var consider *frame.Bitmap
		if mode&1 != 0 {
			consider = sample
		}
		checkBlockWalk(t, fmt.Sprintf("lanes=%d mode=%d", len(xs), mode), xs, newPartition(n, sel, consider))
	})
}
