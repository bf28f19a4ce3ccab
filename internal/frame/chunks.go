package frame

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/memo"
)

// Chunked columns. A column's rows are carved into fixed-capacity chunks;
// each sealed chunk carries a fingerprint (the column's FNV-1a payload hash
// chain snapshotted at the chunk's end) and the chunk's slice of the
// validity bitmap. The chain is a prefix of a flat left-to-right scan and
// the validity words are chunk-local and aligned to 64-row boundaries, so
// the seal of a column is a pure function of its cells — the same for every
// chunk layout — and Append can transplant the full-chunk prefix of a base
// column and scan only the rows past the last full chunk boundary. Storage
// stays contiguous: chunks are metadata over the one backing array, so
// kernels, splits, and codecs read columns exactly as before.
//
// Seals are cached on the Column (not the Frame) so frames that share
// columns — Select views, appended descendants — share the work.

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
	// fields below were computed. Seals seeded by Append or AdoptChunkPrefix
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

// AdoptChunkPrefix seeds every column's seal with the first fullChunks
// sealed chunks of the corresponding base column, the cross-frame form of
// what Append does for its own result: fingerprinting or sealing f
// afterwards scans only the rows past the adopted prefix. The frames must
// share schema and chunk capacity, both must span the prefix, and — because
// chunk chains hash dictionary codes, not strings — a categorical base
// column's dictionary must be a prefix of f's.
//
// The caller is responsible for content: adopting a prefix asserts that
// base's cells over those chunks are identical to f's (verify with
// ChunkFingerprints — chunk j's fingerprint commits to every cell through
// j). Adopting a mismatched prefix yields a frame whose fingerprint and
// validity words describe the base's cells, not f's.
func (f *Frame) AdoptChunkPrefix(base *Frame, fullChunks int) error {
	if fullChunks <= 0 {
		return nil
	}
	cr := f.ChunkRows()
	if base.ChunkRows() != cr {
		return fmt.Errorf("frame: adopt prefix: chunk capacity %d, base has %d", cr, base.ChunkRows())
	}
	if len(base.cols) != len(f.cols) {
		return fmt.Errorf("frame: adopt prefix: %d columns, base has %d", len(f.cols), len(base.cols))
	}
	rows := fullChunks * cr
	if rows > f.numRows || rows > base.numRows {
		return fmt.Errorf("frame: adopt prefix: %d chunks (%d rows) exceed %d/%d rows", fullChunks, rows, f.numRows, base.numRows)
	}
	for i, c := range f.cols {
		bc := base.cols[i]
		if bc.name != c.name || bc.kind != c.kind {
			return fmt.Errorf("frame: adopt prefix: column %d is %s %q, base has %s %q",
				i, c.kind, c.name, bc.kind, bc.name)
		}
		if c.kind == Categorical {
			if len(bc.dict) > len(c.dict) {
				return fmt.Errorf("frame: adopt prefix: column %q dictionary shrank from %d to %d values",
					c.name, len(bc.dict), len(c.dict))
			}
			for code, v := range bc.dict {
				if c.dict[code] != v {
					return fmt.Errorf("frame: adopt prefix: column %q dictionary diverges at code %d (%q vs %q)",
						c.name, code, c.dict[code], v)
				}
			}
		}
	}
	for i, c := range f.cols {
		s := base.cols[i].sealChunks(cr)
		if len(s.chunks) < fullChunks || s.chunks[fullChunks-1].end != rows {
			return fmt.Errorf("frame: adopt prefix: column %q base seal covers %d chunks, want %d full",
				c.name, len(s.chunks), fullChunks)
		}
		c.seal.Store(&colSeal{chunkRows: s.chunkRows, chunks: s.chunks[:fullChunks:fullChunks]})
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

// Append returns a new frame holding f's rows followed by rows' rows. The
// schemas must match exactly: same column count, names, kinds, and order —
// a mismatch is rejected loudly rather than coerced. An empty rows frame
// returns f itself.
//
// The result shares no backing storage with either input (each column is
// copied into a fresh exact-capacity array, so concurrent appends to the
// same base cannot alias), but it inherits f's sealed full chunks: sealing
// or fingerprinting the result scans only the rows past f's last full chunk
// boundary — at most chunkRows−1 old rows plus the appended ones.
func (f *Frame) Append(rows *Frame) (*Frame, error) {
	if rows.NumCols() != len(f.cols) {
		return nil, fmt.Errorf("frame: append to %q: %d columns, want %d", f.name, rows.NumCols(), len(f.cols))
	}
	for i, base := range f.cols {
		add := rows.cols[i]
		if add.name != base.name || add.kind != base.kind {
			return nil, fmt.Errorf("frame: append to %q: column %d is %s %q, want %s %q",
				f.name, i, add.kind, add.name, base.kind, base.name)
		}
	}
	if rows.numRows == 0 {
		return f, nil
	}
	cols := make([]*Column, len(f.cols))
	for i, base := range f.cols {
		add := rows.cols[i]
		switch base.kind {
		case Numeric:
			vals := make([]float64, base.Len()+add.Len())
			copy(vals, base.floats)
			copy(vals[base.Len():], add.floats)
			cols[i] = NewNumericColumn(base.name, vals)
		case Categorical:
			nc := &Column{name: base.name, kind: Categorical, index: make(map[string]int32, len(base.dict))}
			nc.codes = make([]int32, base.Len()+add.Len())
			copy(nc.codes, base.codes)
			nc.dict = append([]string(nil), base.dict...)
			for code, v := range nc.dict {
				nc.index[v] = int32(code)
			}
			for j, code := range add.codes {
				if code < 0 {
					nc.codes[base.Len()+j] = -1
				} else {
					nc.codes[base.Len()+j] = nc.intern(add.dict[code])
				}
			}
			cols[i] = nc
		}
	}
	nf, err := New(f.name, cols)
	if err != nil {
		return nil, err
	}
	nf.chunkRows = f.chunkRows
	// f's cells are a prefix of nf's, so f's sealed full chunks carry over
	// verbatim. A trailing partial chunk of f is dropped: its validity words
	// are chunk-local and would change once the chunk fills, so its rows
	// rescan.
	if err := nf.AdoptChunkPrefix(f, f.FullChunks()); err != nil {
		return nil, err
	}
	return nf, nil
}
