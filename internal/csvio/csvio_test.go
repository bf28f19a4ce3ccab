package csvio

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
)

func TestReadInfersSchema(t *testing.T) {
	in := "x,label,y\n1.5,a,10\n2.5,b,20\n,c,\n"
	f, err := Read(strings.NewReader(in), "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 3 || f.NumCols() != 3 {
		t.Fatalf("shape %d×%d, want 3×3", f.NumRows(), f.NumCols())
	}
	x, _ := f.Lookup("x")
	if x.Kind() != frame.Numeric {
		t.Fatal("x should be numeric")
	}
	lbl, _ := f.Lookup("label")
	if lbl.Kind() != frame.Categorical {
		t.Fatal("label should be categorical")
	}
	if !x.IsNull(2) {
		t.Fatal("empty cell should be NULL")
	}
	if x.Float(0) != 1.5 || x.Float(1) != 2.5 {
		t.Fatal("numeric values wrong")
	}
}

func TestNullTokens(t *testing.T) {
	in := "x\n1\nNULL\nNA\n?\nna\nnull\n"
	f, err := Read(strings.NewReader(in), "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := f.Lookup("x")
	if x.NullCount() != 5 {
		t.Fatalf("nulls = %d, want 5", x.NullCount())
	}
	if !IsNullToken("?") || IsNullToken("0") {
		t.Fatal("IsNullToken wrong")
	}
}

func TestForceCategorical(t *testing.T) {
	in := "zip\n10001\n90210\n"
	f, err := Read(strings.NewReader(in), "t", Options{ForceCategorical: []string{"zip"}})
	if err != nil {
		t.Fatal(err)
	}
	z, _ := f.Lookup("zip")
	if z.Kind() != frame.Categorical {
		t.Fatal("forced column should be categorical")
	}
	if z.Str(0) != "10001" {
		t.Fatal("forced categorical value wrong")
	}
}

func TestAllNullColumnDefaultsNumeric(t *testing.T) {
	in := "a,b\n,x\n,y\n"
	f, err := Read(strings.NewReader(in), "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Lookup("a")
	if a.Kind() != frame.Numeric || a.NullCount() != 2 {
		t.Fatal("all-NULL column should be numeric and fully NULL")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader(""), "t", Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
	// Mixed numeric column discovered late (beyond inference window) must
	// produce a clear parse error, not a panic.
	in := "x\n1\n2\nnot-a-number\n"
	if _, err := Read(strings.NewReader(in), "t", Options{MaxInferRows: 2}); err == nil {
		t.Fatal("non-numeric cell in inferred-numeric column accepted")
	}
}

func TestMaxInferRows(t *testing.T) {
	// With full inference, the trailing string flips the column to
	// categorical.
	in := "x\n1\n2\nabc\n"
	f, err := Read(strings.NewReader(in), "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Col(0).Kind() != frame.Categorical {
		t.Fatal("full inference should detect categorical")
	}
}

func TestCustomDelimiter(t *testing.T) {
	in := "a;b\n1;x\n"
	f, err := Read(strings.NewReader(in), "t", Options{Comma: ';'})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumCols() != 2 {
		t.Fatalf("cols = %d, want 2", f.NumCols())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := frame.NewBuilder("rt")
	xi := b.AddNumeric("x")
	ci := b.AddCategorical("c")
	b.AppendFloat(xi, 1.25)
	b.AppendStr(ci, "hello, world") // embedded comma exercises quoting
	b.AppendNull(xi)
	b.AppendStr(ci, "plain")
	b.AppendFloat(xi, -3)
	b.AppendNull(ci)
	f := b.MustBuild()

	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), "rt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 || back.NumCols() != 2 {
		t.Fatalf("round-trip shape %d×%d", back.NumRows(), back.NumCols())
	}
	x, _ := back.Lookup("x")
	if x.Float(0) != 1.25 || !x.IsNull(1) || x.Float(2) != -3 {
		t.Fatal("numeric round-trip wrong")
	}
	c, _ := back.Lookup("c")
	if c.Str(0) != "hello, world" || c.Str(1) != "plain" || !c.IsNull(2) {
		t.Fatal("categorical round-trip wrong")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	b := frame.NewBuilder("data")
	xi := b.AddNumeric("x")
	b.AppendFloat(xi, 42)
	f := b.MustBuild()
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "data" {
		t.Fatalf("frame name = %q, want data", back.Name())
	}
	if back.Col(0).Float(0) != 42 {
		t.Fatal("file round-trip value wrong")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.csv"), Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWriteFileToBadPath(t *testing.T) {
	f := frame.MustNew("t", []*frame.Column{frame.NewNumericColumn("x", []float64{1})})
	if err := WriteFile(string(os.PathSeparator)+"no/such/dir/file.csv", f); err == nil {
		t.Fatal("writing to invalid path accepted")
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	f := frame.MustNew("t", []*frame.Column{frame.NewNumericColumn("x", []float64{math.Inf(1), math.Inf(-1)})})
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "Inf") || !strings.Contains(s, "-Inf") {
		t.Fatalf("infinities not serialized: %q", s)
	}
}

// streamFixture renders a CSV with numeric, categorical, and NULL-bearing
// cells, rows rows long.
func streamFixture(rows int) string {
	var b strings.Builder
	b.WriteString("x,label,y\n")
	for i := 0; i < rows; i++ {
		switch {
		case i%7 == 3:
			fmt.Fprintf(&b, ",lbl%d,%d\n", i%5, i)
		case i%11 == 5:
			fmt.Fprintf(&b, "%d.5,NULL,%d\n", i, i)
		default:
			fmt.Fprintf(&b, "%d.5,lbl%d,%d\n", i, i%5, i)
		}
	}
	return b.String()
}

// TestReadStreamMatchesRead pins the streaming reader against the buffering
// one: identical cells, identical content fingerprint, chunked layout.
func TestReadStreamMatchesRead(t *testing.T) {
	in := streamFixture(200)
	whole, err := Read(strings.NewReader(in), "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := ReadStream(strings.NewReader(in), "t", Options{ChunkRows: 64, MaxInferRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Fingerprint() != whole.Fingerprint() {
		t.Fatal("streamed frame fingerprints differently")
	}
	if streamed.ChunkRows() != 64 || streamed.NumChunks() != 4 {
		t.Errorf("layout %d×%d chunks, want 64×4", streamed.ChunkRows(), streamed.NumChunks())
	}
	if streamed.NumRows() != 200 || streamed.NumCols() != 3 {
		t.Fatalf("shape %d×%d, want 200×3", streamed.NumRows(), streamed.NumCols())
	}
	x, _ := streamed.Lookup("x")
	if !x.IsNull(3) || x.Float(0) != 0.5 {
		t.Error("streamed cells differ from buffered ones")
	}
}

// TestReadStreamBoundedInference pins the documented trade-off of the
// bounded window: a kind decided from the window is enforced loudly past
// it, with ForceCategorical as the escape hatch.
func TestReadStreamBoundedInference(t *testing.T) {
	in := "v\n1\n2\noops\n"
	if _, err := ReadStream(strings.NewReader(in), "t", Options{MaxInferRows: 2}); err == nil ||
		!strings.Contains(err.Error(), "not numeric") {
		t.Errorf("string past a numeric window: %v", err)
	}
	f, err := ReadStream(strings.NewReader(in), "t",
		Options{MaxInferRows: 2, ForceCategorical: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Lookup("v"); v.Kind() != frame.Categorical || v.Str(2) != "oops" {
		t.Error("ForceCategorical did not rescue the narrow window")
	}
	// A window wide enough to see the string infers categorical on its own.
	f, err = ReadStream(strings.NewReader(in), "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Lookup("v"); v.Kind() != frame.Categorical {
		t.Error("default window missed the non-numeric cell")
	}
}

// TestReadStreamErrors covers the streaming reader's failure and edge
// paths.
func TestReadStreamErrors(t *testing.T) {
	if _, err := ReadStream(strings.NewReader(""), "t", Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadStream(strings.NewReader("a,b\n1\n"), "t", Options{}); err == nil {
		t.Error("ragged row accepted")
	}
	if _, err := ReadStream(strings.NewReader("a,b\n1,2\n1\n"), "t", Options{MaxInferRows: 1}); err == nil {
		t.Error("ragged row past the window accepted")
	}
	f, err := ReadStream(strings.NewReader("a,b\n"), "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 0 || f.NumCols() != 2 {
		t.Errorf("header-only input: %d×%d, want 0×2", f.NumRows(), f.NumCols())
	}
}

// TestReadFileStream pins the file wrapper: name derivation and equality
// with the buffering loader.
func TestReadFileStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cities.csv")
	if err := os.WriteFile(path, []byte(streamFixture(100)), 0o644); err != nil {
		t.Fatal(err)
	}
	streamed, err := ReadFileStream(path, Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Name() != "cities" {
		t.Errorf("name %q, want cities", streamed.Name())
	}
	whole, err := ReadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Fingerprint() != whole.Fingerprint() {
		t.Error("file streamed load differs from whole load")
	}
	if _, err := ReadFileStream(filepath.Join(t.TempDir(), "missing.csv"), Options{}); err == nil {
		t.Error("missing file accepted")
	}
}
