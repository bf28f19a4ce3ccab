package depend

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/synth"
)

// foldTable is a generated table: numeric cells (NaN = NULL) and
// categorical cells ("" = NULL), column-major.
type foldTable struct {
	names []string
	nums  [][]float64
	cats  [][]string
}

// newFoldTable generates rows rows from a shape seed. The columns cover what
// the fold must get right: a trend, a 1e9 offset, sparse and heavy NULLs, a
// column whose first NULL lands after split (so it turns NULL-bearing in an
// append), a constant, a rare ±Inf, a categorical column whose dictionary
// grows past split, a categorical column tracking "noise" whose first NULL
// lands after split, and a one-category column that is NULL before split
// (its dictionary is empty in a base cut there). The three categorical
// columns also give categorical × categorical pairs and, through the
// one-category column, degenerate η cells.
func newFoldTable(seed uint64, rows, split int) *foldTable {
	r := randx.New(seed)
	t := &foldTable{names: []string{"trend", "offset", "noise", "sparse", "heavy", "late", "const", "inf"}}
	t.nums = make([][]float64, len(t.names))
	sparse := 0.01 + 0.1*r.Float64()
	infRow := r.Intn(rows)
	for c := range t.nums {
		t.nums[c] = make([]float64, rows)
	}
	for i := 0; i < rows; i++ {
		z := r.NormFloat64()
		t.nums[0][i] = float64(i)*0.01 + 0.5*z
		t.nums[1][i] = 1e9 + z + 0.3*r.NormFloat64()
		t.nums[2][i] = r.NormFloat64()
		t.nums[3][i] = z*z + r.NormFloat64()
		if r.Bernoulli(sparse) {
			t.nums[3][i] = math.NaN()
		}
		t.nums[4][i] = -z + r.NormFloat64()
		if r.Bernoulli(0.7) {
			t.nums[4][i] = math.NaN()
		}
		t.nums[5][i] = 2*z + 0.1*r.NormFloat64()
		if i >= split && r.Bernoulli(0.3) {
			t.nums[5][i] = math.NaN()
		}
		t.nums[6][i] = 0.1
		t.nums[7][i] = z
		if i == infRow {
			t.nums[7][i] = math.Inf(1 - 2*r.Intn(2))
		}
	}
	t.names = append(t.names, "cat")
	cat := make([]string, rows)
	for i := range cat {
		k := r.Intn(3)
		if i >= split {
			k += r.Intn(3) // codes 3 and 4 first appear after split
		}
		if !r.Bernoulli(0.05) {
			cat[i] = fmt.Sprint("g", k)
		}
	}
	t.names = append(t.names, "latecat", "one")
	late, one := make([]string, rows), make([]string, rows)
	for i := range late {
		switch v := t.nums[2][i]; {
		case v > 0.5:
			late[i] = "hi"
		case v > -0.5:
			late[i] = "mid"
		default:
			late[i] = "lo"
		}
		if i >= split && r.Bernoulli(0.3) {
			late[i] = ""
		}
		if i >= split && !r.Bernoulli(0.1) {
			one[i] = "only"
		}
	}
	t.cats = [][]string{cat, late, one}
	return t
}

// frame builds rows [lo, hi) with chunk capacity cr.
func (t *foldTable) frame(tb testing.TB, lo, hi, cr int) *frame.Frame {
	tb.Helper()
	b := frame.NewBuilder("fold")
	b.SetChunkRows(cr)
	for c := range t.nums {
		b.AddNumeric(t.names[c])
	}
	for c := range t.cats {
		b.AddCategorical(t.names[len(t.nums)+c])
	}
	for i := lo; i < hi; i++ {
		for c, col := range t.nums {
			if math.IsNaN(col[i]) {
				b.AppendNull(c)
			} else {
				b.AppendFloat(c, col[i])
			}
		}
		for c, col := range t.cats {
			if col[i] == "" {
				b.AppendNull(len(t.nums) + c)
			} else {
				b.AppendStr(len(t.nums)+c, col[i])
			}
		}
	}
	f, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// keepAt is where the engine keeps a frame's state: its last full chunk.
func keepAt(f *frame.Frame) int { return f.FullChunks() * f.ChunkRows() }

// sameMatrix fails unless a and b agree bit for bit.
func sameMatrix(tb testing.TB, what string, got, want *Matrix) {
	tb.Helper()
	for i := 0; i < want.Len(); i++ {
		for j := 0; j < want.Len(); j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				tb.Fatalf("%s: cell (%s,%s) = %v, want %v", what, want.Names()[i], want.Names()[j], got.At(i, j), want.At(i, j))
			}
		}
	}
}

// checkResume grows a sealed base by two appends (at split1 and split2),
// resuming each build from the state the previous one kept, and requires
// every matrix to match the same rows loaded whole, at every worker count.
func checkResume(tb testing.TB, seed uint64, rows, split1, split2, cr int) {
	tb.Helper()
	t := newFoldTable(seed, rows, split1)
	whole := t.frame(tb, 0, rows, frame.DefaultChunkRows)
	want := NewMatrixParallel(whole, AbsPearson, 1)

	base := t.frame(tb, 0, split1, cr)
	base.Fingerprint() // sealed, as a served table is
	_, st := FoldMatrix(base, 1, nil, keepAt(base))
	mid, err := base.Append(t.frame(tb, split1, split2, cr))
	if err != nil {
		tb.Fatal(err)
	}
	_, st = FoldMatrix(mid, 2, st, keepAt(mid))
	grown, err := mid.Append(t.frame(tb, split2, rows, cr))
	if err != nil {
		tb.Fatal(err)
	}
	what := fmt.Sprintf("seed %d rows %d splits %d/%d chunk %d", seed, rows, split1, split2, cr)
	// A categorical × numeric cell resumes the very η scan Pairwise runs,
	// and a categorical pair is Pairwise's Cramér's V: the whole load's
	// cells with a categorical column are Pairwise's bit for bit.
	for i := 0; i < grown.NumCols(); i++ {
		for j := i + 1; j < grown.NumCols(); j++ {
			a, b := grown.Col(i), grown.Col(j)
			if a.Kind() == frame.Numeric && b.Kind() == frame.Numeric {
				continue
			}
			if math.Float64bits(want.At(i, j)) != math.Float64bits(Pairwise(a, b, AbsPearson)) {
				tb.Fatalf("%s: cell (%s,%s) = %v, want Pairwise's", what, a.Name(), b.Name(), want.At(i, j))
			}
		}
	}
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		got, kept := FoldMatrix(grown, w, st, keepAt(grown))
		sameMatrix(tb, fmt.Sprintf("%s workers %d resumed", what, w), got, want)
		sameMatrix(tb, fmt.Sprintf("%s workers %d cold", what, w), NewMatrixParallel(grown, AbsPearson, w), want)
		if _, coldKept := FoldMatrix(whole, w, nil, keepAt(grown)); !sameState(kept, coldKept) {
			tb.Fatalf("%s workers %d: kept state differs from a cold build's", what, w)
		}
	}
}

// sameState reports whether two states hold the same bits.
func sameState(a, b *FoldState) bool {
	if a == nil || b == nil {
		return a == b
	}
	return fmt.Sprint(stateBits(a)) == fmt.Sprint(stateBits(b))
}

func stateBits(s *FoldState) []uint64 {
	out := []uint64{uint64(s.rows)}
	add := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, m := range s.cols {
		add(m.n, m.hi, m.lo, m.m2)
	}
	for _, p := range s.pairs {
		add(p.x.n, p.x.hi, p.x.lo, p.x.m2, p.y.n, p.y.hi, p.y.lo, p.y.m2, p.c)
	}
	for i := range s.etas {
		n, mean, m2, sum, count := s.etas[i].State()
		add(float64(n), mean, m2)
		add(sum...)
		add(count...)
	}
	return out
}

// TestFoldResumeMatchesCold is the fold's core promise: a matrix resumed
// from a kept state is bit-identical to the same rows loaded whole, for
// every chunk capacity, prefix split and worker count.
func TestFoldResumeMatchesCold(t *testing.T) {
	cases := []struct {
		seed                     uint64
		rows, split1, split2, cr int
	}{
		{1, 3000, 1100, 2100, 64},
		{2, 3000, 1100, 2100, 192},
		{3, 9000, 4200, 8300, 1024},
		{4, 9000, 4100, 8200, 4096},
		{5, 700, 0, 650, 64},      // empty base
		{6, 1000, 999, 1000, 192}, // one-row and empty appends
		{7, 200, 64, 128, 64},     // appends on chunk boundaries
		{8, 5, 2, 4, 64},          // fewer than three complete cases
	}
	for _, c := range cases {
		checkResume(t, c.seed, c.rows, c.split1, c.split2, c.cr)
	}
}

// FuzzMatrixFold drives checkResume over arbitrary shapes; the seed corpus
// under testdata/fuzz replays on every `go test`.
func FuzzMatrixFold(f *testing.F) {
	f.Add(uint64(1), uint16(3000), uint16(1100), uint16(2100), uint8(0))
	// A 150-row base under 64-row chunks keeps its state at row 128: one's
	// dictionary is still empty there, and latecat turns NULL-bearing only
	// in the first append.
	f.Add(uint64(9), uint16(2000), uint16(150), uint16(900), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, rows, split1, split2 uint16, crSel uint8) {
		n := int(rows)%6000 + 1
		s1 := int(split1) % (n + 1)
		s2 := s1 + int(split2)%(n-s1+1)
		cr := []int{64, 192, 1024, 4096}[crSel%4]
		checkResume(t, seed, n, s1, s2, cr)
	})
}

// TestFoldAccuracy holds the fold against the two-pass reference Pairwise
// (stats.Pearson over the complete cases) on adversarial columns, within
// 1e-9 on |r|, and pins the degenerate cells to exactly 0.
func TestFoldAccuracy(t *testing.T) {
	const tol = 1e-9
	tbl := newFoldTable(11, 20000, 20000)
	f := tbl.frame(t, 0, 20000, 1024)
	m := NewMatrixParallel(f, AbsPearson, 1)
	for i := 0; i < f.NumCols(); i++ {
		for j := i + 1; j < f.NumCols(); j++ {
			a, b := f.Col(i), f.Col(j)
			if a.Kind() != frame.Numeric || b.Kind() != frame.Numeric {
				continue
			}
			got := m.At(i, j)
			switch want := Pairwise(a, b, AbsPearson); {
			case a.Name() == "const" || b.Name() == "const":
				if got != 0 {
					t.Errorf("(%s,%s) = %v, want 0 for a constant column", a.Name(), b.Name(), got)
				}
			case want == 0 && got != 0:
				t.Errorf("(%s,%s) = %v, two-pass 0", a.Name(), b.Name(), got)
			case math.Abs(got-want) > tol:
				t.Errorf("(%s,%s) = %.17g, two-pass %.17g: off by %.3g > %g", a.Name(), b.Name(), got, want, math.Abs(got-want), tol)
			}
		}
	}
	cell := func(a, b string) float64 { return m.At(f.ColIndex(a), f.ColIndex(b)) }
	if v := cell("inf", "noise"); v != 0 {
		t.Errorf("a ±Inf cell among the complete cases gave %v, want 0", v)
	}
	if v := cell("offset", "late"); v < 0.5 {
		t.Errorf("offset/late dependency %v: the shared factor went missing under the 1e9 offset", v)
	}

	// Fewer than three complete cases: x and y never overlap but twice.
	nan := math.NaN()
	few := frame.MustNew("few", []*frame.Column{
		frame.NewNumericColumn("x", []float64{1, 2, nan, nan, 5, 6}),
		frame.NewNumericColumn("y", []float64{nan, 4, 3, 9, 1, nan}),
	})
	if v := NewMatrix(few, AbsPearson).At(0, 1); v != 0 {
		t.Errorf("two complete cases: dependency %v, want 0", v)
	}
}

// TestFoldRowsFolded pins the fold's work as a count: a 256-row append onto
// a sealed 16,384-row base with 1,024-row chunks folds at most a chunk plus
// the tail per numeric pair, and feeds at most as many rows to each
// categorical × numeric cell, against every row for a cold build.
func TestFoldRowsFolded(t *testing.T) {
	whole := synth.Micro("m", 5, 16384+256, 8)
	cols := func(lo, hi int) []*frame.Column {
		out := make([]*frame.Column, whole.NumCols())
		for i, c := range whole.Columns() {
			if c.Kind() == frame.Numeric {
				out[i] = frame.NewNumericColumn(c.Name(), c.Floats()[lo:hi])
			} else {
				nc, err := frame.NewCategoricalColumnFromCodes(c.Name(), c.Codes()[lo:hi], c.Dict())
				if err != nil {
					t.Fatal(err)
				}
				out[i] = nc
			}
		}
		return out
	}
	base, err := frame.NewChunked("m", cols(0, 16384), 1024)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := frame.NewChunked("m", cols(16384, 16640), 1024)
	if err != nil {
		t.Fatal(err)
	}
	base.Fingerprint()
	mixed := int64(whole.NumCols() - 1) // tier × each numeric column
	// build runs fn and returns the rows it folded per numeric pair and fed
	// per categorical × numeric cell.
	build := func(fn func()) (folded, fed int64) {
		f0, e0 := RowsFolded(), EtaRowsFed()
		fn()
		return RowsFolded() - f0, (EtaRowsFed() - e0) / mixed
	}
	var st *FoldState
	folded, fed := build(func() { _, st = FoldMatrix(base, 1, nil, keepAt(base)) })
	if folded != 16384 || fed != 16384 {
		t.Errorf("cold base folded %d rows per pair and fed %d per η cell, want 16384", folded, fed)
	}
	grown, err := base.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	folded, fed = build(func() { FoldMatrix(grown, 1, st, keepAt(grown)) })
	if folded > 1280 || fed > 1280 {
		t.Errorf("append folded %d rows per pair and fed %d per η cell, want ≤ 1280", folded, fed)
	}
	folded, fed = build(func() { NewMatrixParallel(grown, AbsPearson, 1) })
	if folded != 16640 || fed != 16640 {
		t.Errorf("cold grown table folded %d rows per pair and fed %d per η cell, want 16640", folded, fed)
	}
}

// TestFoldStateMismatchIsCold checks that a state describing other columns
// is ignored rather than trusted: one over other numeric columns, and one
// whose numeric columns match but whose categorical columns sit elsewhere.
func TestFoldStateMismatchIsCold(t *testing.T) {
	tbl := newFoldTable(3, 500, 250)
	f := tbl.frame(t, 0, 500, 64)
	_, st := FoldMatrix(f, 1, nil, 448)
	other := synth.Micro("m", 1, 500, 4)
	got, _ := FoldMatrix(other, 1, st, -1)
	sameMatrix(t, "mismatched state", got, NewMatrix(other, AbsPearson))

	// The same numeric columns, then "one" and "cat": trusted, the state
	// would feed cat's cells from latecat's accumulators.
	cols := f.Columns()
	nums := len(tbl.nums)
	moved := frame.MustNew("moved", append(cols[:nums:nums], f.Col(nums+2), f.Col(nums)))
	before := EtaRowsFed()
	got, _ = FoldMatrix(moved, 1, st, -1)
	if fed := EtaRowsFed() - before; fed != int64(2*nums*500) {
		t.Errorf("state with moved categorical columns fed %d rows, want a cold build's %d", fed, 2*nums*500)
	}
	sameMatrix(t, "state with moved categorical columns", got, NewMatrix(moved, AbsPearson))
}
