package frame

import (
	"fmt"
	"math"
)

// Builder assembles a Frame row by row or column by column. It is the
// write-side companion of the read-only Frame and is used by the CSV reader
// and the synthetic data generators. The built frame seals its chunks
// lazily, on first use, like every other frame.
type Builder struct {
	name      string
	cols      []*colBuilder
	chunkRows int
}

type colBuilder struct {
	name   string
	kind   Kind
	floats []float64

	// Categorical cells are dictionary-encoded on arrival (code -1 = NULL),
	// so a builder holds one dictionary instead of every raw string.
	codes []int32
	interner
}

// NewBuilder creates a Builder for a table with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// SetChunkRows sets the chunk capacity of the built frame (rounded up to a
// multiple of 64; non-positive selects DefaultChunkRows).
func (b *Builder) SetChunkRows(n int) { b.chunkRows = n }

// AddNumeric declares a numeric column and returns its index.
func (b *Builder) AddNumeric(name string) int {
	b.cols = append(b.cols, &colBuilder{name: name, kind: Numeric})
	return len(b.cols) - 1
}

// AddCategorical declares a categorical column and returns its index.
func (b *Builder) AddCategorical(name string) int {
	b.cols = append(b.cols, &colBuilder{name: name, kind: Categorical})
	return len(b.cols) - 1
}

// NumCols returns the number of declared columns.
func (b *Builder) NumCols() int { return len(b.cols) }

// NumRows returns the number of rows appended to the first column (the
// builder's row count once columns advance in lockstep, as AppendRows
// guarantees).
func (b *Builder) NumRows() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].len()
}

func (cb *colBuilder) len() int {
	if cb.kind == Numeric {
		return len(cb.floats)
	}
	return len(cb.codes)
}

// AppendFloat appends a value to the numeric column at index col.
func (b *Builder) AppendFloat(col int, v float64) {
	cb := b.cols[col]
	if cb.kind != Numeric {
		panic(fmt.Sprintf("frame: AppendFloat on %s column %q", cb.kind, cb.name))
	}
	cb.floats = append(cb.floats, v)
}

// AppendStr appends a value to the categorical column at index col.
func (b *Builder) AppendStr(col int, v string) {
	cb := b.cols[col]
	if cb.kind != Categorical {
		panic(fmt.Sprintf("frame: AppendStr on %s column %q", cb.kind, cb.name))
	}
	cb.codes = append(cb.codes, cb.intern(v))
}

// AppendNull appends a NULL to the column at index col.
func (b *Builder) AppendNull(col int) {
	cb := b.cols[col]
	switch cb.kind {
	case Numeric:
		cb.floats = append(cb.floats, math.NaN())
	case Categorical:
		cb.codes = append(cb.codes, -1)
	}
}

// Build validates column lengths and returns the finished Frame, chunked at
// the capacity SetChunkRows chose. It is a Splice onto no base, so the
// frame owns copies of the cells and the builder may go on appending.
func (b *Builder) Build() (*Frame, error) {
	cols := make([]Cells, len(b.cols))
	for i, cb := range b.cols {
		cols[i] = Cells{Name: cb.name, Kind: cb.kind, Floats: cb.floats, Codes: cb.codes, Dict: cb.dict}
	}
	return Splice(b.name, b.chunkRows, nil, 0, cols)
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Frame {
	f, err := b.Build()
	if err != nil {
		panic(err)
	}
	return f
}
