package frame

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind identifies the type of a column.
type Kind int

const (
	// Numeric columns hold float64 values; NaN encodes NULL.
	Numeric Kind = iota
	// Categorical columns hold dictionary-encoded strings; code -1
	// encodes NULL.
	Categorical
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column is a single named column of a Frame.
type Column struct {
	name string
	kind Kind

	// Numeric storage. Valid only when kind == Numeric.
	floats []float64

	// Categorical storage. Valid only when kind == Categorical.
	codes []int32
	dict  []string

	// seal caches the column's chunked metadata (per-chunk fingerprints,
	// validity words, NULL count — see chunks.go), built lazily under sealMu
	// and shared by every frame holding this column.
	sealMu sync.Mutex
	seal   atomic.Pointer[colSeal]
}

// NewNumericColumn builds a numeric column that takes ownership of values.
func NewNumericColumn(name string, values []float64) *Column {
	return &Column{name: name, kind: Numeric, floats: values}
}

// NewCategoricalColumn builds a categorical column from raw string values.
// Empty strings are stored as regular values; use NULL explicitly via
// AppendNull on a Builder if needed.
func NewCategoricalColumn(name string, values []string) *Column {
	var in interner
	codes := make([]int32, len(values))
	for i, v := range values {
		codes[i] = in.intern(v)
	}
	return &Column{name: name, kind: Categorical, codes: codes, dict: in.dict}
}

// NewCategoricalColumnFromCodes rebuilds a categorical column from its
// dictionary-encoded representation: the exact codes (-1 = NULL) and the
// exact dictionary, in their original order. NewCategoricalColumn interns
// values in first-occurrence order, so it cannot reproduce an arbitrary
// dictionary layout — but content fingerprints hash codes and dictionary
// as-is, so a column shipped across the wire must be reassembled from this
// constructor to fingerprint identically on both sides.
func NewCategoricalColumnFromCodes(name string, codes []int32, dict []string) (*Column, error) {
	if err := checkCodes(codes, len(dict)); err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(dict))
	for _, v := range dict {
		if _, dup := seen[v]; dup {
			return nil, fmt.Errorf("frame: duplicate dictionary value %q", v)
		}
		seen[v] = struct{}{}
	}
	return &Column{name: name, kind: Categorical, codes: codes, dict: dict}, nil
}

// checkCodes reports the first code outside [-1, dictLen).
func checkCodes(codes []int32, dictLen int) error {
	for i, code := range codes {
		if code < -1 || int(code) >= dictLen {
			return fmt.Errorf("frame: code %d at row %d outside dictionary of %d values", code, i, dictLen)
		}
	}
	return nil
}

// interner dictionary-encodes strings in first-occurrence order. It is the
// one string index in the package, held only while a categorical column is
// built (by Builder, NewCategoricalColumn, Take and Append): a finished
// column is its codes and dictionary alone. The zero value is empty and
// ready to use.
type interner struct {
	dict  []string
	index map[string]int32
}

// newInterner returns an interner whose dictionary starts with a copy of
// dict, which must hold distinct values.
func newInterner(dict []string) interner {
	in := interner{dict: append([]string(nil), dict...), index: make(map[string]int32, len(dict))}
	for code, v := range dict {
		in.index[v] = int32(code)
	}
	return in
}

func (in *interner) intern(v string) int32 {
	if code, ok := in.index[v]; ok {
		return code
	}
	if in.index == nil {
		in.index = make(map[string]int32)
	}
	code := int32(len(in.dict))
	in.dict = append(in.dict, v)
	in.index[v] = code
	return code
}

// recode rewrites codes, which index dict, in place to index the
// interner's dictionary, interning their strings in row order (NULL stays
// -1).
func (in *interner) recode(codes []int32, dict []string) {
	for i, code := range codes {
		if code >= 0 {
			codes[i] = in.intern(dict[code])
		}
	}
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the column kind.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.kind == Numeric {
		return len(c.floats)
	}
	return len(c.codes)
}

// IsNull reports whether row i holds a NULL.
func (c *Column) IsNull(i int) bool {
	if c.kind == Numeric {
		return math.IsNaN(c.floats[i])
	}
	return c.codes[i] < 0
}

// Float returns the numeric value at row i. It panics on categorical
// columns.
func (c *Column) Float(i int) float64 {
	if c.kind != Numeric {
		panic(fmt.Sprintf("frame: Float on %s column %q", c.kind, c.name))
	}
	return c.floats[i]
}

// Floats returns the backing numeric slice. Callers must not modify it.
// It panics on categorical columns.
func (c *Column) Floats() []float64 {
	if c.kind != Numeric {
		panic(fmt.Sprintf("frame: Floats on %s column %q", c.kind, c.name))
	}
	return c.floats
}

// Str returns the string value at row i, or "" for NULL. It panics on
// numeric columns.
func (c *Column) Str(i int) string {
	code := c.Code(i)
	if code < 0 {
		return ""
	}
	return c.dict[code]
}

// Code returns the dictionary code at row i (-1 for NULL). It panics on
// numeric columns.
func (c *Column) Code(i int) int32 {
	if c.kind != Categorical {
		panic(fmt.Sprintf("frame: Code on %s column %q", c.kind, c.name))
	}
	return c.codes[i]
}

// Codes returns the backing code slice of a categorical column. Callers
// must not modify it.
func (c *Column) Codes() []int32 {
	if c.kind != Categorical {
		panic(fmt.Sprintf("frame: Codes on %s column %q", c.kind, c.name))
	}
	return c.codes
}

// Dict returns the dictionary of a categorical column, indexed by code.
// Callers must not modify it.
func (c *Column) Dict() []string {
	if c.kind != Categorical {
		panic(fmt.Sprintf("frame: Dict on %s column %q", c.kind, c.name))
	}
	return c.dict
}

// Cardinality returns the number of distinct non-NULL values of a
// categorical column.
func (c *Column) Cardinality() int {
	if c.kind != Categorical {
		panic(fmt.Sprintf("frame: Cardinality on %s column %q", c.kind, c.name))
	}
	return len(c.dict)
}

// CodeOf returns the dictionary code for value v, or -1 if v is not in the
// dictionary. A column keeps no string index, so it scans the dictionary.
func (c *Column) CodeOf(v string) int32 {
	if c.kind != Categorical {
		panic(fmt.Sprintf("frame: CodeOf on %s column %q", c.kind, c.name))
	}
	for code, s := range c.dict {
		if s == v {
			return int32(code)
		}
	}
	return -1
}

// NullCount returns the number of NULL rows. Once the column is sealed
// (by Fingerprint, ChunkFingerprints or ColumnValidWords on any frame
// holding it) the count is read off the seal; otherwise it scans.
func (c *Column) NullCount() int {
	if s := c.seal.Load(); s != nil && s.finalized && s.covered() == c.Len() {
		return s.nulls
	}
	n := 0
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			n++
		}
	}
	return n
}

// Value returns the value at row i as an interface: float64, string, or nil
// for NULL.
func (c *Column) Value(i int) any {
	if c.IsNull(i) {
		return nil
	}
	if c.kind == Numeric {
		return c.floats[i]
	}
	return c.dict[c.codes[i]]
}

// Frame is an immutable-by-convention table of columns.
type Frame struct {
	name    string
	cols    []*Column
	byName  map[string]int
	numRows int

	// chunkRows is the chunk capacity of this frame's columns; 0 means
	// DefaultChunkRows. See chunks.go.
	chunkRows int

	// fp caches the content fingerprint; 0 means not yet computed.
	fp atomic.Uint64
}

// New creates a Frame from columns. All columns must have equal length and
// distinct, non-empty names.
func New(name string, cols []*Column) (*Frame, error) {
	f := &Frame{name: name, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c == nil {
			return nil, fmt.Errorf("frame: column %d is nil", i)
		}
		if c.name == "" {
			return nil, fmt.Errorf("frame: column %d has an empty name", i)
		}
		if _, dup := f.byName[c.name]; dup {
			return nil, fmt.Errorf("frame: duplicate column name %q", c.name)
		}
		if i == 0 {
			f.numRows = c.Len()
		} else if c.Len() != f.numRows {
			return nil, fmt.Errorf("frame: column %q has %d rows, want %d", c.name, c.Len(), f.numRows)
		}
		f.byName[c.name] = i
		f.cols = append(f.cols, c)
	}
	return f, nil
}

// NewChunked is New with an explicit chunk capacity: the frame's columns
// seal into chunks of chunkRows rows (rounded up to a multiple of 64;
// non-positive means DefaultChunkRows). Chunking changes metadata layout
// only — cell storage, fingerprints, and characterization results are
// identical for every capacity.
func NewChunked(name string, cols []*Column, chunkRows int) (*Frame, error) {
	f, err := New(name, cols)
	if err != nil {
		return nil, err
	}
	f.chunkRows = normalizeChunkRows(chunkRows)
	return f, nil
}

// MustNew is New but panics on error; intended for tests and generators
// whose schemas are statically correct.
func MustNew(name string, cols []*Column) *Frame {
	f, err := New(name, cols)
	if err != nil {
		panic(err)
	}
	return f
}

// Name returns the frame (table) name.
func (f *Frame) Name() string { return f.name }

// NumRows returns the row count.
func (f *Frame) NumRows() int { return f.numRows }

// NumCols returns the column count.
func (f *Frame) NumCols() int { return len(f.cols) }

// Col returns the i-th column.
func (f *Frame) Col(i int) *Column { return f.cols[i] }

// Columns returns the column slice. Callers must not modify it.
func (f *Frame) Columns() []*Column { return f.cols }

// ColumnNames returns the names of all columns in order.
func (f *Frame) ColumnNames() []string {
	names := make([]string, len(f.cols))
	for i, c := range f.cols {
		names[i] = c.name
	}
	return names
}

// Lookup returns the column with the given name.
func (f *Frame) Lookup(name string) (*Column, bool) {
	i, ok := f.byName[name]
	if !ok {
		return nil, false
	}
	return f.cols[i], true
}

// ColIndex returns the position of the named column, or -1.
func (f *Frame) ColIndex(name string) int {
	if i, ok := f.byName[name]; ok {
		return i
	}
	return -1
}

// NumericColumns returns the indices of all numeric columns.
func (f *Frame) NumericColumns() []int {
	var idx []int
	for i, c := range f.cols {
		if c.kind == Numeric {
			idx = append(idx, i)
		}
	}
	return idx
}

// CategoricalColumns returns the indices of all categorical columns.
func (f *Frame) CategoricalColumns() []int {
	var idx []int
	for i, c := range f.cols {
		if c.kind == Categorical {
			idx = append(idx, i)
		}
	}
	return idx
}

// Select returns a new frame containing only the named columns, sharing the
// underlying storage.
func (f *Frame) Select(names ...string) (*Frame, error) {
	cols := make([]*Column, 0, len(names))
	for _, n := range names {
		c, ok := f.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("frame: unknown column %q in table %q", n, f.name)
		}
		cols = append(cols, c)
	}
	nf, err := New(f.name, cols)
	if err != nil {
		return nil, err
	}
	// The view shares columns, so it keeps the parent's chunk capacity —
	// sealed chunk metadata stays valid and shared.
	nf.chunkRows = f.chunkRows
	return nf, nil
}

// Take copies the given rows of f, in the given order, into a new frame
// with f's name and schema. NULLs stay NULL, a row may repeat, and each
// categorical dictionary is compacted to the values the taken rows use, in
// first-use order. It panics on a row outside [0, NumRows()).
func (f *Frame) Take(rows []int) *Frame {
	out := &Frame{name: f.name, cols: make([]*Column, len(f.cols)), byName: f.byName, numRows: len(rows)}
	for ci, c := range f.cols {
		switch c.kind {
		case Numeric:
			vals := make([]float64, len(rows))
			for i, r := range rows {
				vals[i] = c.floats[r]
			}
			out.cols[ci] = NewNumericColumn(c.name, vals)
		case Categorical:
			codes := make([]int32, len(rows))
			for i, r := range rows {
				codes[i] = c.codes[r]
			}
			var in interner
			in.recode(codes, c.dict)
			out.cols[ci] = &Column{name: c.name, kind: Categorical, codes: codes, dict: in.dict}
		}
	}
	return out
}

// SplitNumeric partitions the non-NULL values of the named numeric column
// into the rows inside the mask (Cᴵ) and outside it (Cᴼ). This is the
// fundamental access pattern of the paper (Figure 2).
func (f *Frame) SplitNumeric(name string, mask *Bitmap) (in, out []float64, err error) {
	c, ok := f.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("frame: unknown column %q", name)
	}
	if c.kind != Numeric {
		return nil, nil, fmt.Errorf("frame: column %q is %s, want numeric", name, c.kind)
	}
	if mask.Len() != f.numRows {
		return nil, nil, fmt.Errorf("frame: mask length %d does not match %d rows", mask.Len(), f.numRows)
	}
	for i, v := range c.floats {
		if math.IsNaN(v) {
			continue
		}
		if mask.Get(i) {
			in = append(in, v)
		} else {
			out = append(out, v)
		}
	}
	return in, out, nil
}

// SplitCodes partitions the non-NULL dictionary codes of the named
// categorical column by the mask.
func (f *Frame) SplitCodes(name string, mask *Bitmap) (in, out []int32, dict []string, err error) {
	c, ok := f.Lookup(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("frame: unknown column %q", name)
	}
	if c.kind != Categorical {
		return nil, nil, nil, fmt.Errorf("frame: column %q is %s, want categorical", name, c.kind)
	}
	if mask.Len() != f.numRows {
		return nil, nil, nil, fmt.Errorf("frame: mask length %d does not match %d rows", mask.Len(), f.numRows)
	}
	for i, code := range c.codes {
		if code < 0 {
			continue
		}
		if mask.Get(i) {
			in = append(in, code)
		} else {
			out = append(out, code)
		}
	}
	return in, out, c.dict, nil
}

// SortedNumeric returns a sorted copy of the non-NULL values of a numeric
// column; useful for quantile-based queries in examples and generators.
func (f *Frame) SortedNumeric(name string) ([]float64, error) {
	c, ok := f.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("frame: unknown column %q", name)
	}
	if c.kind != Numeric {
		return nil, fmt.Errorf("frame: column %q is %s, want numeric", name, c.kind)
	}
	vals := make([]float64, 0, len(c.floats))
	for _, v := range c.floats {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	return vals, nil
}
