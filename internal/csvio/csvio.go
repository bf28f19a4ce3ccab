// Package csvio loads and saves frames as CSV files.
//
// The reader infers a schema by scanning the data: a column whose non-empty
// cells all parse as floats becomes numeric, everything else becomes
// categorical. Empty cells and the literal tokens "NULL", "NA" and "?"
// (the UCI convention used by the Communities & Crime data set the paper
// demonstrates on) are treated as NULL.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/frame"
)

// nullTokens are cell values interpreted as NULL during schema inference
// and parsing.
var nullTokens = map[string]bool{"": true, "NULL": true, "null": true, "NA": true, "na": true, "?": true}

// IsNullToken reports whether a raw CSV cell is treated as NULL.
func IsNullToken(s string) bool { return nullTokens[s] }

// Options configures the reader.
type Options struct {
	// Comma is the field delimiter; ',' when zero.
	Comma rune
	// MaxInferRows bounds how many data rows the type-inference pass
	// examines. For Read, 0 means all rows; for ReadStream — which buffers
	// only the inference window — 0 means DefaultInferRows.
	MaxInferRows int
	// ForceCategorical lists column names that must be categorical even if
	// all their values parse as numbers (e.g. zip codes).
	ForceCategorical []string
	// ChunkRows sets the built frame's chunk capacity, rounded up to a
	// multiple of 64; 0 means frame.DefaultChunkRows.
	ChunkRows int
}

// DefaultInferRows is the inference window ReadStream buffers when
// Options.MaxInferRows is zero.
const DefaultInferRows = 4096

// Read parses CSV data with a header row into a Frame named name. With
// MaxInferRows zero, type inference examines every row, so the whole input
// is buffered first.
func Read(r io.Reader, name string, opts Options) (*frame.Frame, error) {
	return read(r, name, opts, math.MaxInt)
}

// ReadStream is Read with a bounded inference window (MaxInferRows rows,
// DefaultInferRows when zero): only the window is buffered, every later
// record is appended as it is parsed, so the peak footprint is the window
// plus the frame being built. A cell past the window that does not parse
// under the inferred kind is an error; widen MaxInferRows or force the
// column categorical.
func ReadStream(r io.Reader, name string, opts Options) (*frame.Frame, error) {
	return read(r, name, opts, DefaultInferRows)
}

// read is the one record loop behind Read and ReadStream: it buffers the
// inference window (opts.MaxInferRows rows, defaultWindow when zero),
// decides every column's kind from it, then appends the window and the
// remaining records one at a time.
func read(r io.Reader, name string, opts Options, defaultWindow int) (*frame.Frame, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	cr.TrimLeadingSpace = true

	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("csvio: empty input")
	}
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	if len(header) == 0 {
		return nil, fmt.Errorf("csvio: header has no columns")
	}
	// The csv reader reuses the record slice; keep stable copies of the rows
	// that outlive the next Read (the header and the inference window).
	header = append([]string(nil), header...)

	window := opts.MaxInferRows
	if window <= 0 {
		window = defaultWindow
	}
	var buf [][]string
	for len(buf) < window {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: reading row %d: %w", len(buf)+2, err)
		}
		buf = append(buf, append([]string(nil), rec...))
	}

	forced := make(map[string]bool, len(opts.ForceCategorical))
	for _, n := range opts.ForceCategorical {
		forced[n] = true
	}
	kinds := inferKinds(header, buf, forced)

	b, colIdx := newFrameBuilder(name, header, kinds)
	b.SetChunkRows(opts.ChunkRows)
	n := 0
	for _, rec := range buf {
		if err := appendRecord(b, colIdx, kinds, header, rec, n+2); err != nil {
			return nil, err
		}
		n++
	}
	buf = nil
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: reading row %d: %w", n+2, err)
		}
		if err := appendRecord(b, colIdx, kinds, header, rec, n+2); err != nil {
			return nil, err
		}
		n++
	}
	return b.Build()
}

// newFrameBuilder declares one builder column per header field.
func newFrameBuilder(name string, header []string, kinds []frame.Kind) (*frame.Builder, []int) {
	b := frame.NewBuilder(name)
	colIdx := make([]int, len(header))
	for i, h := range header {
		if kinds[i] == frame.Numeric {
			colIdx[i] = b.AddNumeric(h)
		} else {
			colIdx[i] = b.AddCategorical(h)
		}
	}
	return b, colIdx
}

// appendRecord validates one CSV record against the inferred schema and
// appends it; line is the 1-based file line for error messages.
func appendRecord(b *frame.Builder, colIdx []int, kinds []frame.Kind, header []string, rec []string, line int) error {
	if len(rec) != len(header) {
		return fmt.Errorf("csvio: row %d has %d fields, want %d", line, len(rec), len(header))
	}
	for ci, cell := range rec {
		if nullTokens[cell] {
			b.AppendNull(colIdx[ci])
			continue
		}
		if kinds[ci] == frame.Numeric {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return fmt.Errorf("csvio: row %d column %q: %q is not numeric", line, header[ci], cell)
			}
			b.AppendFloat(colIdx[ci], v)
		} else {
			b.AppendStr(colIdx[ci], cell)
		}
	}
	return nil
}

// inferKinds decides each column's kind by scanning rows.
func inferKinds(header []string, rows [][]string, forced map[string]bool) []frame.Kind {
	kinds := make([]frame.Kind, len(header))
	for ci, h := range header {
		if forced[h] {
			kinds[ci] = frame.Categorical
			continue
		}
		numeric := true
		seen := false
		for _, rec := range rows {
			if ci >= len(rec) {
				continue
			}
			cell := rec[ci]
			if nullTokens[cell] {
				continue
			}
			seen = true
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				numeric = false
				break
			}
		}
		// All-NULL columns default to numeric; a NULL float column is more
		// useful downstream than a NULL dictionary.
		if numeric || !seen {
			kinds[ci] = frame.Numeric
		} else {
			kinds[ci] = frame.Categorical
		}
	}
	return kinds
}

// ReadFile opens and parses a CSV file via Read. The frame is named after
// the path's base name without extension.
func ReadFile(path string, opts Options) (*frame.Frame, error) {
	return readFile(path, opts, math.MaxInt)
}

// ReadFileStream is ReadFile via ReadStream: only the inference window is
// buffered.
func ReadFileStream(path string, opts Options) (*frame.Frame, error) {
	return readFile(path, opts, DefaultInferRows)
}

// readFile opens path and runs the record loop over it.
func readFile(path string, opts Options, defaultWindow int) (*frame.Frame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	defer f.Close()
	return read(f, tableName(path), opts, defaultWindow)
}

// tableName derives a frame name from a path: the base name without its
// extension.
func tableName(path string) string {
	name := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			name = path[i+1:]
			break
		}
	}
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			name = name[:i]
			break
		}
	}
	return name
}

// Write serializes a frame as CSV with a header row. NULLs are written as
// empty cells; floats use the shortest round-trippable representation.
func Write(w io.Writer, f *frame.Frame) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.ColumnNames()); err != nil {
		return fmt.Errorf("csvio: writing header: %w", err)
	}
	rec := make([]string, f.NumCols())
	for i := 0; i < f.NumRows(); i++ {
		for j := 0; j < f.NumCols(); j++ {
			c := f.Col(j)
			switch {
			case c.IsNull(i):
				rec[j] = ""
			case c.Kind() == frame.Numeric:
				rec[j] = formatFloat(c.Float(i))
			default:
				rec[j] = c.Str(i)
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("csvio: writing row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile serializes a frame to the given path.
func WriteFile(path string, f *frame.Frame) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	defer out.Close()
	if err := Write(out, f); err != nil {
		return err
	}
	return out.Close()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
