package frame

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/memo"
)

// Chunked columns. A column's rows are carved into fixed-capacity chunks;
// each sealed chunk carries a fingerprint (the column's FNV-1a payload hash
// chain snapshotted at the chunk's end) and the chunk's slice of the
// validity bitmap. The chain is a prefix of a flat left-to-right scan and
// the validity words are chunk-local and aligned to 64-row boundaries, so
// the seal of a column is a pure function of its cells — the same for every
// chunk layout — and Splice can transplant the full-chunk prefix of a base
// column and scan only the rows past the last full chunk boundary. Storage
// stays contiguous: chunks are metadata over the one backing array, so
// kernels, splits, and codecs read columns exactly as before.
//
// Seals are cached on the Column (not the Frame) so frames that share
// columns — Select views — share the work.

// DefaultChunkRows is the chunk capacity used when a frame does not choose
// one. It is a multiple of 64 so full-chunk validity bitmaps concatenate
// word-exactly.
const DefaultChunkRows = 4096

// normalizeChunkRows maps a requested chunk capacity into the valid domain:
// non-positive means DefaultChunkRows, anything else is rounded up to the
// next multiple of 64 (validity words must not straddle chunk boundaries).
func normalizeChunkRows(n int) int {
	if n <= 0 {
		return DefaultChunkRows
	}
	if r := n % 64; r != 0 {
		n += 64 - r
	}
	return n
}

// chunkScans counts chunk seal scans process-wide, in the style of
// stats.RankOps: it only ever grows, and tests assert deltas around an
// operation to pin how much column data an append or a cold load actually
// re-read.
var chunkScans atomic.Int64

// ChunkScans returns the process-wide number of chunk scans performed so
// far. Each sealed chunk costs exactly one scan of its rows; a cold seal of
// a k-chunk column reports k, and an append that reuses the base column's
// full chunks reports only the chunks past the last full boundary.
func ChunkScans() int64 { return chunkScans.Load() }

// chunkMeta is one sealed chunk of one column.
type chunkMeta struct {
	// end is the exclusive row index of the chunk's end; its start is the
	// previous chunk's end (0 for the first).
	end int
	// chain is the raw FNV-1a state of the column's payload hash chain
	// after folding every cell through end — resumable by the next chunk,
	// and layout-independent at any given row index.
	chain uint64
	// valid is the chunk's slice of the non-NULL bitmap, one bit per row in
	// chunk order. Full chunks hold exactly chunkRows/64 words.
	valid []uint64
}

// colSeal is the sealed view of one column under one chunk capacity.
type colSeal struct {
	chunkRows int
	chunks    []chunkMeta
	// finalized reports that chunks cover every row AND the whole-column
	// fields below were computed. Seals seeded by Splice's prefix transplant
	// are stored unfinalized (a chunk prefix only) and complete on first use
	// — coverage alone cannot distinguish a boundary-aligned prefix from a
	// finished seal.
	finalized bool
	// nulls is the column's NULL count: rows minus the set bits of valid.
	nulls int
	// valid is the whole-column non-NULL bitmap; each chunk's words are a
	// window of it, bit-identical to a flat scan because chunk capacities
	// are multiples of 64.
	valid []uint64
}

// covered returns the number of rows the seal accounts for.
func (s *colSeal) covered() int {
	if len(s.chunks) == 0 {
		return 0
	}
	return s.chunks[len(s.chunks)-1].end
}

// chainEnd returns the raw payload hash-chain state after the last sealed
// row (the FNV offset basis for an empty column).
func (s *colSeal) chainEnd() uint64 {
	if len(s.chunks) == 0 {
		return uint64(memo.NewHasher())
	}
	return s.chunks[len(s.chunks)-1].chain
}

// sealChunks returns the column's seal under the given chunk capacity,
// computing or extending it if needed. A cached seal with the same capacity
// is extended in place-of: chunks it already sealed are reused and only rows
// past its coverage are scanned — this is how an appended column, seeded
// with its base's full-chunk prefix, seals by scanning only the new rows.
func (c *Column) sealChunks(chunkRows int) *colSeal {
	chunkRows = normalizeChunkRows(chunkRows)
	if s := c.seal.Load(); s != nil && s.chunkRows == chunkRows && s.finalized && s.covered() == c.Len() {
		return s
	}
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	s := c.seal.Load()
	if s != nil && s.chunkRows == chunkRows && s.finalized && s.covered() == c.Len() {
		return s
	}
	var prefix []chunkMeta
	if s != nil && s.chunkRows == chunkRows {
		prefix = s.chunks
	}
	ns := c.buildSeal(chunkRows, prefix)
	c.seal.Store(ns)
	return ns
}

// buildSeal seals the column's chunks from the end of prefix (which must be
// boundary-aligned sealed chunks of this column's cells under the same
// capacity) through the last row and counts the NULLs. Every chunk's
// validity words are a window of the one whole-column bitmap.
func (c *Column) buildSeal(chunkRows int, prefix []chunkMeta) *colSeal {
	n := c.Len()
	s := &colSeal{
		chunkRows: chunkRows,
		chunks:    make([]chunkMeta, 0, (n+chunkRows-1)/chunkRows),
		valid:     make([]uint64, (n+63)/64),
	}
	start := 0
	chain := uint64(memo.NewHasher())
	for _, cm := range prefix {
		lo, hi := start/64, start/64+len(cm.valid)
		copy(s.valid[lo:hi], cm.valid)
		s.chunks = append(s.chunks, chunkMeta{end: cm.end, chain: cm.chain, valid: s.valid[lo:hi:hi]})
		start, chain = cm.end, cm.chain
	}
	for start < n {
		end := min(start+chunkRows, n)
		cm := c.sealOneChunk(start, end, chain, s.valid[start/64:(end+63)/64:(end+63)/64])
		s.chunks = append(s.chunks, cm)
		chain = cm.chain
		start = end
		chunkScans.Add(1)
	}
	set := 0
	for _, w := range s.valid {
		set += bits.OnesCount64(w)
	}
	s.nulls = n - set
	s.finalized = true
	return s
}

// sealOneChunk scans rows [start, end): it extends the payload hash chain
// and sets the chunk's validity bits in valid, which must be zeroed.
func (c *Column) sealOneChunk(start, end int, chain uint64, valid []uint64) chunkMeta {
	cm := chunkMeta{end: end, valid: valid}
	h := memo.Hasher(chain)
	switch c.kind {
	case Numeric:
		for i, v := range c.floats[start:end] {
			h.Uint64(math.Float64bits(v))
			if !math.IsNaN(v) {
				cm.valid[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	case Categorical:
		for i, code := range c.codes[start:end] {
			h.Uint32(uint32(code))
			if code >= 0 {
				cm.valid[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	cm.chain = uint64(h)
	return cm
}

// ChunkRows returns the frame's chunk capacity (DefaultChunkRows when the
// frame never chose one).
func (f *Frame) ChunkRows() int { return normalizeChunkRows(f.chunkRows) }

// NumChunks returns the number of chunks each column carves into under the
// frame's chunk capacity (0 for an empty frame).
func (f *Frame) NumChunks() int {
	cr := f.ChunkRows()
	return (f.numRows + cr - 1) / cr
}

// ColumnValidWords returns the non-NULL bitmap words of column i (bit r set
// ⇔ row r is non-NULL), sealing its chunks if needed. Callers must not
// modify the returned slice.
func (f *Frame) ColumnValidWords(i int) []uint64 {
	return f.cols[i].sealChunks(f.chunkRows).valid
}

// ChunkBounds returns the row range [start, end) of chunk j under the
// frame's chunk capacity. Chunk starts are always multiples of the capacity
// (itself a multiple of 64), so per-chunk validity bitmaps are word-aligned.
func (f *Frame) ChunkBounds(j int) (start, end int) {
	cr := f.ChunkRows()
	start = j * cr
	end = start + cr
	if end > f.numRows {
		end = f.numRows
	}
	return start, end
}

// FullChunks returns the number of boundary-complete chunks: the prefix of
// the frame whose per-chunk metadata is final and therefore transplantable.
// It equals NumChunks when the row count is chunk-aligned and NumChunks−1
// when the last chunk is partial.
func (f *Frame) FullChunks() int { return f.numRows / f.ChunkRows() }

// adoptChunkPrefix seeds every column's seal with the first n sealed chunks
// of base's column, so sealing f scans only the rows past them. It is
// Splice's last step: Splice has checked schemas and capacities and copied
// those chunks' cells from base, whose chains the seals now describe. Both
// frames must span the prefix.
func (f *Frame) adoptChunkPrefix(base *Frame, n int) error {
	if n <= 0 {
		return nil
	}
	cr := f.ChunkRows()
	if rows := n * cr; rows > f.numRows || rows > base.numRows {
		return fmt.Errorf("frame: adopt prefix: %d chunks (%d rows) exceed %d/%d rows", n, rows, f.numRows, base.numRows)
	}
	for i, c := range f.cols {
		s := base.cols[i].sealChunks(cr)
		c.seal.Store(&colSeal{chunkRows: cr, chunks: s.chunks[:n:n]})
	}
	return nil
}

// ChunkFingerprints returns the sealed fingerprint of every chunk of column
// i, in chunk order. Each is the column's payload hash chain snapshotted at
// that chunk's end, so chunk j's fingerprint commits to the contents of
// chunks 0..j — two columns agreeing on chunk j's fingerprint agree on
// every cell through it.
func (f *Frame) ChunkFingerprints(i int) []uint64 {
	s := f.cols[i].sealChunks(f.chunkRows)
	fps := make([]uint64, len(s.chunks))
	for j, cm := range s.chunks {
		fps[j] = sealFingerprint(cm.chain)
	}
	return fps
}

// ChunkFingerprint returns ChunkFingerprints(i)[j] without building the
// slice, for scans that compare chunk chains across many frames.
func (f *Frame) ChunkFingerprint(i, j int) uint64 {
	return sealFingerprint(f.cols[i].sealChunks(f.chunkRows).chunks[j].chain)
}

// Cells is one column of a Splice: its schema, and its cells after the
// splice row. Floats holds a numeric column's cells; Codes a categorical
// column's codes (-1 = NULL) into Dict, the whole dictionary of the new
// version, which must start with the base column's. Splice takes Dict as
// it is, so its values must be distinct (an interner's dictionary or a
// decoded manifest's is).
type Cells struct {
	Name   string
	Kind   Kind
	Floats []float64
	Codes  []int32
	Dict   []string
}

// Extends reports whether a column with the given name, kind and
// dictionary can hold c's cells as its first rows: the same name and kind,
// and a dictionary that starts with c's (cells are codes, so a code must
// keep its string). It allocates nothing, so a worker can ask it of every
// resident table.
func (c *Column) Extends(name string, kind Kind, dict []string) bool {
	return name == c.name && kind == c.kind && len(dict) >= len(c.dict) && slices.Equal(dict[:len(c.dict)], c.dict)
}

// Splice builds a table version from the first k rows of base followed by
// the tail cells, chunked at chunkRows (see NewChunked); with no base and
// k = 0 it is a plain build. It is the one path that copies cells into a
// new version: Builder.Build, Append and the worker's reassembly of a
// shipped table all call it.
//
// Before it copies a cell it checks the column count, chunk capacity, each
// column's name and kind against base's, that every tail has one length
// and codes inside its dictionary, and that each dictionary extends base's.
// The result shares no cells with base or tail, and it inherits base's
// sealed full chunks before row k: sealing it scans only the rows after.
func Splice(name string, chunkRows int, base *Frame, k int, tail []Cells) (*Frame, error) {
	if err := checkSplice(name, chunkRows, base, k, tail); err != nil {
		return nil, err
	}
	cols := make([]*Column, len(tail))
	for i, t := range tail {
		c := &Column{name: t.Name, kind: t.Kind, dict: t.Dict[:len(t.Dict):len(t.Dict)]}
		switch t.Kind {
		case Numeric:
			var prefix []float64
			if k > 0 {
				prefix = base.cols[i].floats[:k]
			}
			c.floats = concat(prefix, t.Floats)
		case Categorical:
			var prefix []int32
			if k > 0 {
				prefix = base.cols[i].codes[:k]
			}
			c.codes = concat(prefix, t.Codes)
		}
		cols[i] = c
	}
	nf, err := NewChunked(name, cols, chunkRows)
	if err != nil {
		return nil, err
	}
	// A partial chunk of base before k is dropped: its validity words are
	// chunk-local and change once the chunk fills, so its rows rescan.
	if err := nf.adoptChunkPrefix(base, k/nf.ChunkRows()); err != nil {
		return nil, err
	}
	return nf, nil
}

// concat returns prefix followed by tail in one fresh exact-length array.
// make followed at once by copy lets the compiler skip zeroing the prefix.
func concat[T float64 | int32](prefix, tail []T) []T {
	out := make([]T, len(prefix)+len(tail))
	copy(out, prefix)
	copy(out[len(prefix):], tail)
	return out
}

// checkSplice is Splice's validation: it reports why the tail cannot
// follow base's first k rows.
func checkSplice(name string, chunkRows int, base *Frame, k int, tail []Cells) error {
	switch {
	case k < 0 || (k > 0 && (base == nil || k > base.numRows)):
		return fmt.Errorf("frame: splice %q: no %d-row base prefix", name, k)
	case base != nil && len(tail) != len(base.cols):
		return fmt.Errorf("frame: splice %q: %d columns, base has %d", name, len(tail), len(base.cols))
	case k > 0 && base.ChunkRows() != normalizeChunkRows(chunkRows):
		return fmt.Errorf("frame: splice %q: chunk capacity %d, base has %d", name, normalizeChunkRows(chunkRows), base.ChunkRows())
	}
	n := 0
	for i, t := range tail {
		cells := len(t.Floats)
		if t.Kind == Categorical {
			cells = len(t.Codes)
			if err := checkCodes(t.Codes, len(t.Dict)); err != nil {
				return fmt.Errorf("frame: splice %q: column %q: %w", name, t.Name, err)
			}
		}
		if i > 0 && cells != n {
			return fmt.Errorf("frame: splice %q: column %q has %d tail cells, want %d", name, t.Name, cells, n)
		}
		n = cells
		if base != nil && !base.cols[i].Extends(t.Name, t.Kind, t.Dict) {
			bc := base.cols[i]
			return fmt.Errorf("frame: splice %q: column %d, %s %q with %d dictionary values, does not extend base's %s %q with %d",
				name, i, t.Kind, t.Name, len(t.Dict), bc.kind, bc.name, len(bc.dict))
		}
	}
	return nil
}

// Append returns a new frame holding f's rows followed by rows' rows. The
// schemas must match exactly: same column count, names, kinds, and order —
// a mismatch is rejected loudly rather than coerced. An empty rows frame
// returns f itself.
//
// It is a Splice of rows' cells onto all of f, each categorical tail
// recoded into f's dictionary (new values appended in first-use order):
// the result shares no cells with either input and inherits f's sealed
// full chunks.
func (f *Frame) Append(rows *Frame) (*Frame, error) {
	tail := make([]Cells, len(rows.cols))
	for i, c := range rows.cols {
		tail[i] = Cells{Name: c.name, Kind: c.kind, Floats: c.floats}
		if c.kind == Categorical && i < len(f.cols) {
			in := newInterner(f.cols[i].dict)
			codes := append([]int32(nil), c.codes...)
			in.recode(codes, c.dict)
			tail[i].Codes, tail[i].Dict = codes, in.dict
		}
	}
	if rows.numRows == 0 {
		if err := checkSplice(f.name, f.chunkRows, f, f.numRows, tail); err != nil {
			return nil, err
		}
		return f, nil
	}
	return Splice(f.name, f.chunkRows, f, f.numRows, tail)
}
