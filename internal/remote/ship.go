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
// Zero means g is no use: different chunk capacity, a column the
// manifest's does not extend (frame.Column.Extends, the schema and
// dictionary check frame.Splice makes — chains hash codes, so equal codes
// under diverged dictionaries would mean different strings), or simply no
// agreeing chunks. Only g's full chunks count — a trailing partial chunk's
// metadata changes once it fills.
func matchPrefix(m Manifest, g *frame.Frame) int {
	if g.ChunkRows() != m.ChunkRows || g.NumCols() != len(m.Cols) {
		return 0
	}
	limit := min(g.FullChunks(), m.NumChunks())
	if limit == 0 {
		return 0
	}
	for i, c := range g.Columns() {
		if mc := m.Cols[i]; !c.Extends(mc.Name, mc.Kind, mc.Dict) {
			return 0
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

// AssembleFrame reconstructs the stream's table by splicing the streamed
// tail cells onto the first s.Prefix full chunks of base (frame.Splice,
// which checks base's schema and dictionaries against the manifest's
// before it copies a cell, and carries base's sealed chunks over, so
// sealing the result scans only the streamed rows — the chain resumes
// across the splice). The final checks prove integrity end to end: every
// chunk fingerprint must match the manifest's commitment, so a base whose
// prefix cells differ is named by column and chunk, and the reassembled
// frame's Fingerprint() must equal the sender's.
func AssembleFrame(s Stream, base *frame.Frame) (*frame.Frame, error) {
	m := s.Manifest
	if len(s.Tail) != len(m.Cols) {
		return nil, fmt.Errorf("remote: assemble %#x: stream carries %d columns, want %d", m.Fingerprint, len(s.Tail), len(m.Cols))
	}
	if s.Prefix == 0 {
		base = nil
	}
	nf, err := frame.Splice(m.Name, m.ChunkRows, base, s.Prefix*m.ChunkRows, s.Tail)
	if err != nil {
		return nil, fmt.Errorf("remote: assemble %#x: %v", m.Fingerprint, err)
	}
	if nf.NumRows() != m.NumRows {
		return nil, fmt.Errorf("remote: assemble %#x: manifest says %d rows, columns carry %d", m.Fingerprint, m.NumRows, nf.NumRows())
	}
	// Sealing resumes each column's hash chain from the transplanted prefix
	// and folds in only the streamed rows; if any spliced cell differs from
	// what the sender hashed, or the base's prefix is not the sender's, the
	// chain diverges at that chunk and is named.
	for i, mc := range m.Cols {
		fps := nf.ChunkFingerprints(i)
		if len(fps) != len(mc.Chains) {
			return nil, fmt.Errorf("remote: assemble %#x: column %q commits %d chains for %d chunks",
				m.Fingerprint, mc.Name, len(mc.Chains), len(fps))
		}
		for j, got := range fps {
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
