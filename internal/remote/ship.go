package remote

import (
	"fmt"

	"repro/internal/frame"
)

// matchPrefix returns how many leading full chunks of the resident frame g
// can serve as an adopted prefix for the table the manifest describes: the
// longest k such that every column's chunk chain fingerprints agree through
// chunk k−1. Because chunk j's fingerprint commits to every cell through j,
// agreement on the first k chunks is agreement on the first k·ChunkRows
// rows — the worker can splice them in without seeing the cells again.
//
// Zero means g is no use: different schema or chunk capacity, a
// categorical dictionary that is not a prefix of the manifest's (chains
// hash codes, so equal codes under diverged dictionaries would mean
// different strings), or simply no agreeing chunks. Only g's full chunks
// count — a trailing partial chunk's metadata changes once it fills.
func matchPrefix(m Manifest, g *frame.Frame) int {
	if g.ChunkRows() != m.ChunkRows || g.NumCols() != len(m.Cols) {
		return 0
	}
	limit := g.FullChunks()
	if n := m.NumChunks(); n < limit {
		limit = n
	}
	if limit == 0 {
		return 0
	}
	for i, c := range g.Columns() {
		mc := m.Cols[i]
		if c.Name() != mc.Name || c.Kind() != mc.Kind {
			return 0
		}
		if c.Kind() == frame.Categorical {
			dict := c.Dict()
			if len(dict) > len(mc.Dict) {
				return 0
			}
			for code, v := range dict {
				if mc.Dict[code] != v {
					return 0
				}
			}
		}
	}
	// Chunk by chunk, not ChunkFingerprints: the worker runs this against
	// every resident table, so it must not allocate per candidate.
	for i := range g.Columns() {
		want := m.Cols[i].Chains
		k := 0
		for k < limit && g.ChunkFingerprint(i, k) == want[k] {
			k++
		}
		if limit = k; limit == 0 {
			return 0
		}
	}
	return limit
}

// AssembleFrame reconstructs the stream's table from an adopted prefix of
// base (the first s.Prefix full chunks, verified to match by matchPrefix)
// plus the streamed tail cells. The adopted prefix is transplanted via
// frame.AdoptChunkPrefix, so sealing the result scans only the streamed
// rows — the chain resumes across the splice — and the final checks prove
// integrity end to end: every chunk fingerprint must match the manifest's
// commitment, and the reassembled frame's Fingerprint() must equal the
// sender's.
func AssembleFrame(s Stream, base *frame.Frame) (*frame.Frame, error) {
	m := s.Manifest
	numChunks := m.NumChunks()
	prefixRows := s.Prefix * m.ChunkRows
	if s.Prefix < 0 || prefixRows > m.NumRows {
		return nil, fmt.Errorf("remote: assemble %#x: prefix of %d chunks out of %d", m.Fingerprint, s.Prefix, numChunks)
	}
	if len(s.Tail) != len(m.Cols) {
		return nil, fmt.Errorf("remote: assemble %#x: stream carries %d columns, want %d", m.Fingerprint, len(s.Tail), len(m.Cols))
	}
	if s.Prefix > 0 {
		if base == nil {
			return nil, fmt.Errorf("remote: assemble %#x: %d-chunk prefix with no base frame", m.Fingerprint, s.Prefix)
		}
		if base.NumRows() < prefixRows || base.NumCols() != len(m.Cols) {
			return nil, fmt.Errorf("remote: assemble %#x: base frame cannot cover a %d-chunk prefix", m.Fingerprint, s.Prefix)
		}
	}

	tailRows := m.NumRows - prefixRows
	cols := make([]*frame.Column, len(m.Cols))
	for i, mc := range m.Cols {
		if len(mc.Chains) != numChunks {
			return nil, fmt.Errorf("remote: assemble %#x: column %q commits %d chains for %d chunks",
				m.Fingerprint, mc.Name, len(mc.Chains), numChunks)
		}
		switch mc.Kind {
		case frame.Numeric:
			if len(s.Tail[i].Floats) != tailRows {
				return nil, fmt.Errorf("remote: assemble %#x: column %q streams %d cells, want %d",
					m.Fingerprint, mc.Name, len(s.Tail[i].Floats), tailRows)
			}
			vals := make([]float64, m.NumRows)
			if prefixRows > 0 {
				copy(vals, base.Col(i).Floats()[:prefixRows])
			}
			copy(vals[prefixRows:], s.Tail[i].Floats)
			cols[i] = frame.NewNumericColumn(mc.Name, vals)
		case frame.Categorical:
			if len(s.Tail[i].Codes) != tailRows {
				return nil, fmt.Errorf("remote: assemble %#x: column %q streams %d codes, want %d",
					m.Fingerprint, mc.Name, len(s.Tail[i].Codes), tailRows)
			}
			codes := make([]int32, m.NumRows)
			if prefixRows > 0 {
				copy(codes, base.Col(i).Codes()[:prefixRows])
			}
			copy(codes[prefixRows:], s.Tail[i].Codes)
			c, err := frame.NewCategoricalColumnFromCodes(mc.Name, codes, mc.Dict)
			if err != nil {
				return nil, fmt.Errorf("remote: assemble %#x: %v", m.Fingerprint, err)
			}
			cols[i] = c
		default:
			return nil, fmt.Errorf("remote: assemble %#x: column %q has unknown kind", m.Fingerprint, mc.Name)
		}
	}
	nf, err := frame.NewChunked(m.Name, cols, m.ChunkRows)
	if err != nil {
		return nil, fmt.Errorf("remote: assemble %#x: %v", m.Fingerprint, err)
	}
	if nf.NumRows() != m.NumRows {
		return nil, fmt.Errorf("remote: assemble %#x: manifest says %d rows, columns carry %d", m.Fingerprint, m.NumRows, nf.NumRows())
	}
	if s.Prefix > 0 {
		if err := nf.AdoptChunkPrefix(base, s.Prefix); err != nil {
			return nil, fmt.Errorf("remote: assemble %#x: %v", m.Fingerprint, err)
		}
	}
	// Sealing resumes each column's hash chain from the transplanted prefix
	// and folds in only the streamed rows; if any spliced cell differs from
	// what the sender hashed, the chain diverges at that chunk and is named.
	for i, mc := range m.Cols {
		for j, got := range nf.ChunkFingerprints(i) {
			if got != mc.Chains[j] {
				return nil, fmt.Errorf("remote: assemble %#x: column %q chunk %d reseals to %#x, manifest committed %#x",
					m.Fingerprint, mc.Name, j, got, mc.Chains[j])
			}
		}
	}
	if got := nf.Fingerprint(); got != m.Fingerprint {
		return nil, fmt.Errorf("remote: reassembled frame fingerprints %#x, sender computed %#x", got, m.Fingerprint)
	}
	return nf, nil
}
