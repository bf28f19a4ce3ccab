package frame

import (
	"math"
	"reflect"
	"testing"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	num := NewNumericColumn("x", []float64{1, 2, math.NaN(), 4, 5})
	cat := NewCategoricalColumn("c", []string{"a", "b", "a", "c", "b"})
	f, err := New("t", []*Column{num, cat})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	x := NewNumericColumn("x", []float64{1, 2})
	y := NewNumericColumn("y", []float64{1, 2, 3})
	if _, err := New("t", []*Column{x, y}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	x2 := NewNumericColumn("x", []float64{3, 4})
	if _, err := New("t", []*Column{x, x2}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New("t", []*Column{nil}); err == nil {
		t.Fatal("nil column accepted")
	}
	anon := NewNumericColumn("", []float64{1})
	if _, err := New("t", []*Column{anon}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestBasicAccessors(t *testing.T) {
	f := sampleFrame(t)
	if f.Name() != "t" || f.NumRows() != 5 || f.NumCols() != 2 {
		t.Fatalf("unexpected shape: %s %d×%d", f.Name(), f.NumRows(), f.NumCols())
	}
	c, ok := f.Lookup("x")
	if !ok || c.Kind() != Numeric {
		t.Fatal("Lookup(x) failed")
	}
	if f.ColIndex("c") != 1 || f.ColIndex("zzz") != -1 {
		t.Fatal("ColIndex wrong")
	}
	if got := f.ColumnNames(); got[0] != "x" || got[1] != "c" {
		t.Fatalf("ColumnNames = %v", got)
	}
	if n := f.NumericColumns(); len(n) != 1 || n[0] != 0 {
		t.Fatalf("NumericColumns = %v", n)
	}
	if n := f.CategoricalColumns(); len(n) != 1 || n[0] != 1 {
		t.Fatalf("CategoricalColumns = %v", n)
	}
}

func TestNullHandling(t *testing.T) {
	f := sampleFrame(t)
	x, _ := f.Lookup("x")
	if !x.IsNull(2) || x.IsNull(0) {
		t.Fatal("numeric NULL detection wrong")
	}
	if x.NullCount() != 1 {
		t.Fatalf("NullCount = %d, want 1", x.NullCount())
	}
	if v := x.Value(2); v != nil {
		t.Fatalf("Value of NULL = %v, want nil", v)
	}
	if v := x.Value(0); v != 1.0 {
		t.Fatalf("Value(0) = %v, want 1", v)
	}
}

func TestCategoricalDictionary(t *testing.T) {
	f := sampleFrame(t)
	c, _ := f.Lookup("c")
	if c.Cardinality() != 3 {
		t.Fatalf("Cardinality = %d, want 3", c.Cardinality())
	}
	if c.Str(0) != "a" || c.Str(1) != "b" || c.Str(3) != "c" {
		t.Fatal("Str decoding wrong")
	}
	if c.CodeOf("a") != c.Code(0) {
		t.Fatal("CodeOf(a) does not round-trip")
	}
	if c.CodeOf("missing") != -1 {
		t.Fatal("CodeOf(missing) should be -1")
	}
	if v := c.Value(1); v != "b" {
		t.Fatalf("Value(1) = %v, want b", v)
	}
}

func TestKindPanics(t *testing.T) {
	f := sampleFrame(t)
	x, _ := f.Lookup("x")
	c, _ := f.Lookup("c")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Float on categorical", func() { c.Float(0) })
	mustPanic("Floats on categorical", func() { c.Floats() })
	mustPanic("Str on numeric", func() { x.Str(0) })
	mustPanic("Codes on numeric", func() { x.Codes() })
	mustPanic("Dict on numeric", func() { x.Dict() })
	mustPanic("Cardinality on numeric", func() { x.Cardinality() })
	mustPanic("CodeOf on numeric", func() { x.CodeOf("a") })
}

func TestSelect(t *testing.T) {
	f := sampleFrame(t)
	sub, err := f.Select("c")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCols() != 1 || sub.Col(0).Name() != "c" {
		t.Fatal("Select returned wrong columns")
	}
	if _, err := f.Select("nope"); err == nil {
		t.Fatal("Select accepted unknown column")
	}
}

func TestTake(t *testing.T) {
	f := sampleFrame(t)
	sub := f.Take([]int{4, 0, 3, 0})
	if sub.NumRows() != 4 || sub.Name() != f.Name() {
		t.Fatalf("taken frame %q has %d rows, want %q with 4", sub.Name(), sub.NumRows(), f.Name())
	}
	x, _ := sub.Lookup("x")
	if x.Float(0) != 5 || x.Float(1) != 1 || x.Float(2) != 4 || x.Float(3) != 1 {
		t.Fatalf("taken numeric values wrong: %v", x.Floats())
	}
	c, _ := sub.Lookup("c")
	if c.Str(0) != "b" || c.Str(1) != "a" || c.Str(2) != "c" || c.Str(3) != "a" {
		t.Fatal("taken categorical values wrong")
	}
	// The dictionary is rebuilt from the taken rows, in first-use order.
	if got := c.Dict(); !reflect.DeepEqual(got, []string{"b", "a", "c"}) {
		t.Fatalf("taken dictionary = %v, want [b a c]", got)
	}
	if sub := f.Take(nil); sub.NumRows() != 0 || sub.NumCols() != f.NumCols() {
		t.Fatalf("empty take is %d×%d", sub.NumRows(), sub.NumCols())
	}
}

func TestTakePreservesNulls(t *testing.T) {
	b := NewBuilder("t")
	xi := b.AddNumeric("x")
	ci := b.AddCategorical("c")
	b.AppendFloat(xi, 1)
	b.AppendStr(ci, "a")
	b.AppendNull(xi)
	b.AppendNull(ci)
	f := b.MustBuild()
	sub := f.Take([]int{1, 0})
	if !sub.Col(0).IsNull(0) || !sub.Col(1).IsNull(0) || sub.Col(1).Str(1) != "a" {
		t.Fatal("Take dropped NULLs")
	}
	if sub.Col(1).Cardinality() != 1 {
		t.Fatalf("NULL entered the dictionary: %v", sub.Col(1).Dict())
	}
}

func TestSplitNumeric(t *testing.T) {
	f := sampleFrame(t)
	mask := BitmapFromIndices(5, []int{0, 1, 2})
	in, out, err := f.SplitNumeric("x", mask)
	if err != nil {
		t.Fatal(err)
	}
	// Row 2 is NULL and must be excluded from both sides.
	if len(in) != 2 || in[0] != 1 || in[1] != 2 {
		t.Fatalf("in = %v, want [1 2]", in)
	}
	if len(out) != 2 || out[0] != 4 || out[1] != 5 {
		t.Fatalf("out = %v, want [4 5]", out)
	}
	if _, _, err := f.SplitNumeric("c", mask); err == nil {
		t.Fatal("SplitNumeric accepted categorical column")
	}
	if _, _, err := f.SplitNumeric("zzz", mask); err == nil {
		t.Fatal("SplitNumeric accepted unknown column")
	}
	if _, _, err := f.SplitNumeric("x", NewBitmap(3)); err == nil {
		t.Fatal("SplitNumeric accepted wrong-length mask")
	}
}

func TestSplitInvariant(t *testing.T) {
	// |Cᴵ| + |Cᴼ| must equal the non-NULL count for any mask (Figure 2).
	f := sampleFrame(t)
	for _, idx := range [][]int{{}, {0}, {0, 1, 2, 3, 4}, {2}, {1, 3}} {
		mask := BitmapFromIndices(5, idx)
		in, out, err := f.SplitNumeric("x", mask)
		if err != nil {
			t.Fatal(err)
		}
		if len(in)+len(out) != 4 { // 5 rows, 1 NULL
			t.Fatalf("mask %v: |in|+|out| = %d, want 4", idx, len(in)+len(out))
		}
	}
}

func TestSplitCodes(t *testing.T) {
	f := sampleFrame(t)
	mask := BitmapFromIndices(5, []int{0, 1})
	in, out, dict, err := f.SplitCodes("c", mask)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 2 || len(out) != 3 {
		t.Fatalf("split sizes = %d/%d, want 2/3", len(in), len(out))
	}
	if dict[in[0]] != "a" || dict[in[1]] != "b" {
		t.Fatal("in codes decode incorrectly")
	}
	if _, _, _, err := f.SplitCodes("x", mask); err == nil {
		t.Fatal("SplitCodes accepted numeric column")
	}
}

func TestSortedNumeric(t *testing.T) {
	f := sampleFrame(t)
	vals, err := f.SortedNumeric("x")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 4, 5}
	if len(vals) != len(want) {
		t.Fatalf("SortedNumeric = %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("SortedNumeric = %v, want %v", vals, want)
		}
	}
	if _, err := f.SortedNumeric("c"); err == nil {
		t.Fatal("SortedNumeric accepted categorical column")
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder("bt")
	xi := b.AddNumeric("x")
	ci := b.AddCategorical("c")
	for i := 0; i < 10; i++ {
		b.AppendFloat(xi, float64(i))
		if i%3 == 0 {
			b.AppendNull(ci)
		} else {
			b.AppendStr(ci, "v")
		}
	}
	f, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10", f.NumRows())
	}
	c, _ := f.Lookup("c")
	if c.NullCount() != 4 {
		t.Fatalf("categorical nulls = %d, want 4", c.NullCount())
	}
}

func TestBuilderTypePanics(t *testing.T) {
	b := NewBuilder("bt")
	xi := b.AddNumeric("x")
	ci := b.AddCategorical("c")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AppendStr on numeric did not panic")
			}
		}()
		b.AppendStr(xi, "oops")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AppendFloat on categorical did not panic")
			}
		}()
		b.AppendFloat(ci, 1)
	}()
}

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}
