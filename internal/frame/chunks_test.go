package frame

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// buildChunked builds a two-column (numeric + categorical) frame over n rows
// with the given chunk capacity; NULLs every 7th numeric row and every 11th
// categorical row.
func buildChunked(t *testing.T, n, chunkRows int) *Frame {
	t.Helper()
	vals := make([]float64, n)
	strs := make([]string, n)
	for i := range vals {
		vals[i] = float64(i%97) * 1.5
		if i%7 == 3 {
			vals[i] = math.NaN()
		}
		strs[i] = fmt.Sprintf("v%d", i%13)
	}
	num := NewNumericColumn("x", vals)
	cat := NewCategoricalColumn("c", strs)
	for i := 0; i < n; i++ {
		if i%11 == 5 {
			cat.codes[i] = -1
		}
	}
	f, err := NewChunked("t", []*Column{num, cat}, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSealLayoutInvariance(t *testing.T) {
	const n = 333
	base := buildChunked(t, n, 0) // DefaultChunkRows: one chunk
	for _, cr := range []int{64, 128, 256, DefaultChunkRows} {
		f := buildChunked(t, n, cr)
		if got, want := f.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("chunkRows=%d: fingerprint %x, want %x", cr, got, want)
		}
		for i := 0; i < f.NumCols(); i++ {
			if a, b := f.Col(i).NullCount(), base.Col(i).NullCount(); a != b {
				t.Errorf("chunkRows=%d col %d: NullCount %d, want %d", cr, i, a, b)
			}
			if !reflect.DeepEqual(f.ColumnValidWords(i), base.ColumnValidWords(i)) {
				t.Errorf("chunkRows=%d col %d: valid words differ from flat layout", cr, i)
			}
		}
	}
}

func TestChunkRowsNormalization(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultChunkRows}, {-5, DefaultChunkRows}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := normalizeChunkRows(tc.in); got != tc.want {
			t.Errorf("normalizeChunkRows(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestChunkFingerprintsArePrefixCommitments(t *testing.T) {
	short := buildChunked(t, 128, 64)
	long := buildChunked(t, 256, 64) // same generator: first 128 rows identical
	for i := 0; i < short.NumCols(); i++ {
		sfp, lfp := short.ChunkFingerprints(i), long.ChunkFingerprints(i)
		if len(sfp) != 2 || len(lfp) != 4 {
			t.Fatalf("col %d: chunk counts %d/%d, want 2/4", i, len(sfp), len(lfp))
		}
		for j := range sfp {
			if sfp[j] != lfp[j] {
				t.Errorf("col %d chunk %d: fingerprint %x, want shared prefix %x", i, j, lfp[j], sfp[j])
			}
		}
		if lfp[2] == lfp[3] || lfp[0] == lfp[1] {
			t.Errorf("col %d: consecutive chunk fingerprints collide", i)
		}
	}
}

func TestNumChunks(t *testing.T) {
	f := buildChunked(t, 150, 64)
	if got := f.NumChunks(); got != 3 {
		t.Errorf("NumChunks = %d, want 3", got)
	}
	if got := f.ChunkRows(); got != 64 {
		t.Errorf("ChunkRows = %d, want 64", got)
	}
	empty := MustNew("e", nil)
	if got := empty.NumChunks(); got != 0 {
		t.Errorf("empty NumChunks = %d, want 0", got)
	}
}

func TestAppendEquivalentToWholeBuild(t *testing.T) {
	whole := buildChunked(t, 300, 64)
	base := buildChunked(t, 190, 64)
	extra := buildChunked(t, 300, 64)
	// Carve the tail rows [190, 300) via Take to get an independent frame
	// with the same cells.
	var rows []int
	for i := 190; i < 300; i++ {
		rows = append(rows, i)
	}
	tail := extra.Take(rows)
	got, err := base.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != whole.NumRows() {
		t.Fatalf("appended rows = %d, want %d", got.NumRows(), whole.NumRows())
	}
	if got.Fingerprint() != whole.Fingerprint() {
		t.Errorf("appended fingerprint %x, want %x", got.Fingerprint(), whole.Fingerprint())
	}
	for i := 0; i < whole.NumCols(); i++ {
		if a, b := got.Col(i).NullCount(), whole.Col(i).NullCount(); a != b {
			t.Errorf("col %d: appended NullCount %d, want %d", i, a, b)
		}
		if !reflect.DeepEqual(got.ColumnValidWords(i), whole.ColumnValidWords(i)) {
			t.Errorf("col %d: appended valid words differ", i)
		}
		for r := 0; r < whole.NumRows(); r++ {
			if !reflect.DeepEqual(got.Col(i).Value(r), whole.Col(i).Value(r)) {
				t.Fatalf("col %d row %d: %v, want %v", i, r, got.Col(i).Value(r), whole.Col(i).Value(r))
			}
		}
	}
}

func TestAppendScansOnlyNewChunks(t *testing.T) {
	base := buildChunked(t, 256, 64) // 4 full chunks per column
	base.Fingerprint()               // seal: 4 scans × 2 cols
	tail := buildChunked(t, 64, 64)
	before := ChunkScans()
	appended, err := base.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	appended.Fingerprint()
	if delta := ChunkScans() - before; delta != 2 {
		t.Errorf("append+seal scanned %d chunks, want 2 (one new chunk per column)", delta)
	}

	// A base with a trailing partial chunk rescans that partial plus the new
	// rows — never the full prefix.
	base2 := buildChunked(t, 200, 64) // chunks end at 64,128,192,200
	base2.Fingerprint()
	before = ChunkScans()
	appended2, err := base2.Append(tail) // 264 rows: reseal covers [192,264) = 2 chunks/col
	if err != nil {
		t.Fatal(err)
	}
	appended2.Fingerprint()
	if delta := ChunkScans() - before; delta != 4 {
		t.Errorf("append over partial chunk scanned %d chunks, want 4 (two per column)", delta)
	}
}

func TestAppendRejectsSchemaMismatch(t *testing.T) {
	base := buildChunked(t, 64, 64)
	for name, bad := range map[string]*Frame{
		"column count":  MustNew("t", []*Column{NewNumericColumn("x", []float64{1})}),
		"column name":   MustNew("t", []*Column{NewNumericColumn("y", []float64{1}), NewCategoricalColumn("c", []string{"a"})}),
		"column kind":   MustNew("t", []*Column{NewCategoricalColumn("x", []string{"a"}), NewCategoricalColumn("c", []string{"a"})}),
		"swapped order": MustNew("t", []*Column{NewCategoricalColumn("c", []string{"a"}), NewNumericColumn("x", []float64{1})}),
	} {
		if _, err := base.Append(bad); err == nil {
			t.Errorf("append with mismatched %s: no error", name)
		}
	}
}

func TestAppendEmptyReturnsSame(t *testing.T) {
	base := buildChunked(t, 64, 64)
	empty := MustNew("t", []*Column{NewNumericColumn("x", nil), NewCategoricalColumn("c", nil)})
	got, err := base.Append(empty)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Error("empty append built a new frame")
	}
}

func TestAppendDoesNotAliasBase(t *testing.T) {
	base := buildChunked(t, 100, 64)
	t1 := buildChunked(t, 30, 64)
	t2 := buildChunked(t, 50, 64)
	a, err := base.Append(t1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Append(t2)
	if err != nil {
		t.Fatal(err)
	}
	// Diamond appends: both descendants must keep their own tails intact.
	for r := 0; r < 30; r++ {
		if a.Col(0).Float(100+r) != t1.Col(0).Float(r) && !(math.IsNaN(a.Col(0).Float(100+r)) && math.IsNaN(t1.Col(0).Float(r))) {
			t.Fatalf("first append clobbered at row %d", 100+r)
		}
	}
	for r := 0; r < 50; r++ {
		if b.Col(0).Float(100+r) != t2.Col(0).Float(r) && !(math.IsNaN(b.Col(0).Float(100+r)) && math.IsNaN(t2.Col(0).Float(r))) {
			t.Fatalf("second append clobbered at row %d", 100+r)
		}
	}
}

func TestAppendGrowsDictionary(t *testing.T) {
	base := MustNew("t", []*Column{NewCategoricalColumn("c", []string{"a", "b", "a"})})
	tail := MustNew("t", []*Column{NewCategoricalColumn("c", []string{"z", "b", "q"})})
	got, err := base.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	c := got.Col(0)
	want := []string{"a", "b", "a", "z", "b", "q"}
	for i, w := range want {
		if c.Str(i) != w {
			t.Errorf("row %d: %q, want %q", i, c.Str(i), w)
		}
	}
	if !reflect.DeepEqual(c.Dict(), []string{"a", "b", "z", "q"}) {
		t.Errorf("dict = %v, want base prefix preserved then new values", c.Dict())
	}
	if base.Col(0).Cardinality() != 2 {
		t.Errorf("base dict mutated: %v", base.Col(0).Dict())
	}
}

func nullFixture(t *testing.T, lo, hi, chunkRows int) *Frame {
	t.Helper()
	n := hi - lo
	num := make([]float64, n)
	strs := make([]string, n)
	none := make([]int32, n)
	free := make([]float64, n)
	for k := range num {
		i := lo + k
		num[k] = float64(i % 89)
		if i%7 == 3 {
			num[k] = math.NaN()
		}
		strs[k] = fmt.Sprintf("s%d", i%17)
		none[k] = -1
		free[k] = float64(i) * 0.25
	}
	cat := NewCategoricalColumn("categorical", strs)
	for k := range cat.codes {
		if (lo+k)%11 == 5 {
			cat.codes[k] = -1
		}
	}
	allNull, err := NewCategoricalColumnFromCodes("all-NULL", none, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewChunked("t", []*Column{
		NewNumericColumn("numeric", num), cat, allNull, NewNumericColumn("NULL-free", free),
	}, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// scanNulls counts a column's NULLs cell by cell.
func scanNulls(c *Column) int {
	n := 0
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			n++
		}
	}
	return n
}

// TestNullCountReadsSeal pins NullCount to a cell scan for every way a
// column gets sealed — cold, grown by Append over a sealed base, and
// assembled from an adopted chunk prefix — across chunk capacities below,
// straddling, and above the 64-row validity word.
func TestNullCountReadsSeal(t *testing.T) {
	const rows, split = 4400, 2900
	for _, cr := range []int{64, 192, DefaultChunkRows} {
		for _, mode := range []string{"cold", "appended", "adopted prefix"} {
			var f *Frame
			switch mode {
			case "cold":
				f = nullFixture(t, 0, rows, cr)
			case "appended":
				base := nullFixture(t, 0, split, cr)
				base.Fingerprint()
				var err error
				if f, err = base.Append(nullFixture(t, split, rows, cr)); err != nil {
					t.Fatal(err)
				}
			case "adopted prefix":
				base := nullFixture(t, 0, split, cr)
				k := base.FullChunks() * cr
				var err error
				if f, err = Splice("t", cr, base, k, tailCells(nullFixture(t, 0, rows, cr), k)); err != nil {
					t.Fatal(err)
				}
			}
			f.Fingerprint()
			for i, c := range f.Columns() {
				t.Run(fmt.Sprintf("cap%d/%s/%s", cr, mode, c.Name()), func(t *testing.T) {
					s := c.seal.Load()
					if s == nil || !s.finalized || s.covered() != rows {
						t.Fatal("column not sealed after Fingerprint")
					}
					want := scanNulls(c)
					if s.nulls != want || c.NullCount() != want {
						t.Errorf("seal records %d NULLs, NullCount %d, cell scan %d", s.nulls, c.NullCount(), want)
					}
					if got := len(f.ColumnValidWords(i)); got != (rows+63)/64 {
						t.Errorf("%d validity words, want %d", got, (rows+63)/64)
					}
				})
			}
		}
	}
}

func TestInvalidateFingerprintDropsSeals(t *testing.T) {
	f := buildChunked(t, 128, 64)
	fp := f.Fingerprint()
	nulls := f.Col(0).NullCount()
	f.Col(0).floats[0] = math.NaN() // in-place mutation, against convention
	f.InvalidateFingerprint()
	if got := f.Fingerprint(); got == fp {
		t.Error("fingerprint unchanged after invalidate + mutation")
	}
	if f.Col(0).NullCount() != nulls+1 || f.ColumnValidWords(0)[0]&1 != 0 {
		t.Error("seal not rebuilt after invalidate")
	}
}

// TestChunkBoundsAndFullChunks pins the chunk geometry helpers the
// transport's manifest slicing relies on.
func TestChunkBoundsAndFullChunks(t *testing.T) {
	f := buildChunked(t, 150, 64) // chunks: [0,64) [64,128) [128,150)
	want := [][2]int{{0, 64}, {64, 128}, {128, 150}}
	for j, w := range want {
		if s, e := f.ChunkBounds(j); s != w[0] || e != w[1] {
			t.Errorf("ChunkBounds(%d) = [%d,%d), want [%d,%d)", j, s, e, w[0], w[1])
		}
	}
	if got := f.FullChunks(); got != 2 {
		t.Errorf("FullChunks = %d, want 2 (last chunk partial)", got)
	}
	exact := buildChunked(t, 128, 64)
	if got := exact.FullChunks(); got != exact.NumChunks() {
		t.Errorf("aligned FullChunks = %d, want NumChunks %d", got, exact.NumChunks())
	}
}

// tailCells returns f's cells from row k on, each categorical column with
// its whole dictionary: the tail that splices f back from its own prefix.
func tailCells(f *Frame, k int) []Cells {
	out := make([]Cells, len(f.cols))
	for i, c := range f.cols {
		out[i] = Cells{Name: c.name, Kind: c.kind, Dict: c.dict}
		if c.kind == Numeric {
			out[i].Floats = c.floats[k:]
		} else {
			out[i].Codes = c.codes[k:]
		}
	}
	return out
}

// TestSpliceAdoptsChunkPrefix pins the seal transplant inside Splice: after
// splicing onto a base's first k rows, sealing the new version scans only
// the rows past the base's last full chunk before k, and every derived
// quantity matches a cold build.
func TestSpliceAdoptsChunkPrefix(t *testing.T) {
	base := buildChunked(t, 160, 64)  // full chunks end at 64, 128
	whole := buildChunked(t, 300, 64) // shares the generator: identical prefix
	cold := buildChunked(t, 300, 64)

	base.Fingerprint() // warm the base's seal; the splice reuses it
	for _, tc := range []struct{ k, scans int }{
		// 300 rows / 64 = 5 chunks per column; k=128 and k=150 both adopt
		// 2, so each of the 2 columns scans 3. k=0 adopts none.
		{128, 6}, {150, 6}, {0, 10},
	} {
		b := base
		if tc.k == 0 {
			b = nil // a plain build
		}
		before := ChunkScans()
		got, err := Splice("t", 64, b, tc.k, tailCells(whole, tc.k))
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		fp := got.Fingerprint()
		if scans := ChunkScans() - before; scans != int64(tc.scans) {
			t.Errorf("k=%d: splice + fingerprint scanned %d chunks, want %d", tc.k, scans, tc.scans)
		}
		if fp != cold.Fingerprint() {
			t.Errorf("k=%d: spliced fingerprint %x, cold build %x", tc.k, fp, cold.Fingerprint())
		}
		for i := 0; i < got.NumCols(); i++ {
			if !reflect.DeepEqual(got.ChunkFingerprints(i), cold.ChunkFingerprints(i)) {
				t.Errorf("k=%d col %d: chunk fingerprints diverged", tc.k, i)
			}
			if !reflect.DeepEqual(got.ColumnValidWords(i), cold.ColumnValidWords(i)) {
				t.Errorf("k=%d col %d: valid words diverged", tc.k, i)
			}
		}
	}
}

// TestSpliceRejectsMismatch covers the guard rails: capacity, schema,
// span, tail lengths, code ranges and dictionary-prefix violations all
// refuse loudly, before a cell is copied.
func TestSpliceRejectsMismatch(t *testing.T) {
	base := buildChunked(t, 128, 64)
	f := buildChunked(t, 300, 64)
	splice := func(base *Frame, k int, tail []Cells) error {
		_, err := Splice("t", 64, base, k, tail)
		return err
	}

	if splice(buildChunked(t, 128, 128), 64, tailCells(f, 64)) == nil {
		t.Error("capacity mismatch accepted")
	}
	if splice(MustNew("e", nil), 0, tailCells(f, 0)) == nil {
		t.Error("column-count mismatch accepted")
	}
	if splice(base, 192, tailCells(f, 192)) == nil {
		t.Error("prefix beyond the base accepted")
	}
	if splice(nil, 64, tailCells(f, 64)) == nil || splice(base, -1, tailCells(f, 0)) == nil {
		t.Error("prefix with no base accepted")
	}
	// The transplant itself refuses a prefix past either frame.
	if err := f.adoptChunkPrefix(base, 3); err == nil {
		t.Error("transplant beyond the base accepted")
	}
	if err := base.adoptChunkPrefix(f, 3); err == nil {
		t.Error("transplant beyond the adopter accepted")
	}

	renamed, err := NewChunked("t", []*Column{
		NewNumericColumn("y", make([]float64, 128)),
		NewCategoricalColumn("c", make([]string, 128)),
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if splice(renamed, 64, tailCells(f, 64)) == nil {
		t.Error("column-name mismatch accepted")
	}
	swapped := tailCells(f, 64)
	swapped[0] = Cells{Name: "x", Kind: Categorical, Codes: make([]int32, len(swapped[0].Floats))}
	if splice(base, 64, swapped) == nil {
		t.Error("column-kind mismatch accepted")
	}
	short := tailCells(f, 64)
	short[1].Codes = short[1].Codes[1:]
	if splice(base, 64, short) == nil {
		t.Error("unequal tail lengths accepted")
	}
	outside := tailCells(f, 64)
	outside[1].Codes = append([]int32{int32(len(outside[1].Dict))}, outside[1].Codes[1:]...)
	if splice(base, 64, outside) == nil || splice(nil, 0, outside) == nil {
		t.Error("code outside the dictionary accepted")
	}

	// A base whose dictionary is not a prefix of the tail's: its chunk
	// chains hash different codes, so the splice must refuse.
	strs := make([]string, 128)
	for i := range strs {
		strs[i] = fmt.Sprintf("w%d", i%13) // disjoint from buildChunked's v%d
	}
	divergent, err := NewChunked("t", []*Column{
		NewNumericColumn("x", make([]float64, 128)),
		NewCategoricalColumn("c", strs),
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if splice(divergent, 64, tailCells(f, 64)) == nil {
		t.Error("divergent dictionary accepted")
	}
	shrunk := tailCells(f, 64)
	shrunk[1].Codes = make([]int32, len(shrunk[1].Codes))
	for i := range shrunk[1].Codes {
		shrunk[1].Codes[i] = -1 // in range of any dictionary
	}
	shrunk[1].Dict = shrunk[1].Dict[:3]
	if splice(base, 64, shrunk) == nil {
		t.Error("shrunk dictionary accepted")
	}
}
