// Package remote moves shards behind RPC: it is the HTTP implementation of
// the shard.Backend boundary, splitting the serving layer across processes
// without changing a single cache key or routing decision.
//
// A worker process (`ziggyd -worker`) wraps its own shard.Router in a
// Worker handler exposing endpoints under /api/worker/: health, stats, the
// two-request table registration (manifest + chunks), characterize, and
// invalidate. A front process (`ziggyd -peers
// host1,host2`) builds one Client per worker and hands them to
// shard.NewWithBackends; the front routes by the same rendezvous hash over
// frame.Fingerprint the in-process router uses, so a front and its workers
// agree on table ownership with zero coordination.
//
// Everything on the wire is content-addressed and versioned. A table
// registers in two requests, and the worker keeps nothing between them:
//
//   - the front POSTs a chunk manifest (schema, dictionaries, chunk
//     capacity, and each column's per-chunk chain fingerprints) as a pure
//     question. The worker answers "registered" for a fingerprint it holds,
//     and otherwise the one prefix it can adopt: the length of the longest
//     chunk prefix it finds in a resident table (typically the pre-append
//     version) and that table's fingerprint;
//   - the front then POSTs a self-describing chunk stream: the encoded
//     manifest again, the base fingerprint and prefix it was offered, and
//     each column's cells from the first missing chunk to the end. The
//     worker splices the streamed cells onto the named base's prefix
//     (frame.Splice, which checks the base's schema and dictionaries and
//     carries its sealed prefix chunks over) and reseals only the streamed
//     rows, so an append ships O(delta) bytes. Every chunk, adopted or
//     resealed, must reproduce the manifest's chain commitment and the
//     reassembled frame's Fingerprint() the sender's, so a corrupted cell
//     or a base whose prefix differs is named by column and chunk and
//     never stored. Streams may arrive in any order, from any number of
//     fronts, late or twice: one for a stored fingerprint replaces nothing;
//   - a characterize request carries only the table fingerprint, the
//     selection bitmap words, and the options, so a repeat query is
//     answered from the worker's report cache without the table crossing
//     the wire again (even by a front that never shipped it, to a worker
//     that never received it); a worker that holds neither the table nor
//     the report answers 404, and only then does the front ship the table;
//   - reports come back in core's report wire format, which round-trips
//     byte-identically — a remote report re-encodes to the same bytes as an
//     in-process one (TestRemoteDeterminism).
package remote

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/wire"
)

// codecVersion is bumped whenever any wire layout changes; a decoder only
// accepts payloads of its own version. Version 2 added the approximate
// options to the request layout; version 3 added the frame's chunk capacity
// so a shipped table keeps its chunk layout on the worker; version 4
// replaced the monolithic frame payload with the manifest/chunk-stream
// negotiation, making table transport content-addressed per chunk; version
// 5 dropped the per-chunk chain fingerprint and validity words from the
// chunk stream, which the worker recomputes from the cells when it reseals;
// version 6 made the stream self-describing (manifest, base and prefix
// inline, no per-chunk index), so the worker holds no negotiation state.
// A version-skewed peer rejects loudly rather than misparsing.
const codecVersion = 6

var (
	manifestMagic   = [4]byte{'Z', 'G', 'M', codecVersion}
	chunksMagic     = [4]byte{'Z', 'G', 'C', codecVersion}
	requestMagic    = [4]byte{'Z', 'G', 'Q', codecVersion}
	invalidateMagic = [4]byte{'Z', 'G', 'I', codecVersion}
)

const (
	decodingManifest   = "remote: decoding manifest"
	decodingChunks     = "remote: decoding chunk stream"
	decodingRequest    = "remote: decoding request"
	decodingInvalidate = "remote: decoding invalidate"
)

// Column kind bytes on the wire.
const (
	wireNumeric     = 0
	wireCategorical = 1
)

// maxManifestRows bounds the row count a manifest may claim; unlike v3's
// frame payload, a manifest carries no cells, so the claim must be bounded
// explicitly before chunk geometry is trusted.
const maxManifestRows = 1 << 40

// Manifest describes a table at chunk granularity without carrying any
// cells: the question of phase one and the header of the chunk stream.
// Equality of a column's chain fingerprint at chunk j means equality of
// every cell through chunk j (the chain is a prefix commitment), which is
// what lets the worker adopt a resident prefix without seeing its cells.
type Manifest struct {
	// Fingerprint is the sender's frame.Fingerprint — what the reassembled
	// table must reproduce.
	Fingerprint uint64
	Name        string
	// ChunkRows is the frame's chunk capacity (positive multiple of 64).
	ChunkRows int
	NumRows   int
	Cols      []ManifestColumn
}

// ManifestColumn is one column's schema plus chunk-chain commitments.
type ManifestColumn struct {
	Name string
	Kind frame.Kind
	// Dict is the categorical dictionary in storage order (nil for numeric
	// columns). Chunks ship codes, so the decoder needs it up front.
	Dict []string
	// Chains holds the column's sealed chunk fingerprints in chunk order,
	// one per chunk (frame.ChunkFingerprints).
	Chains []uint64
}

// NumChunks returns the chunk count implied by the manifest's geometry.
func (m Manifest) NumChunks() int {
	if m.ChunkRows <= 0 {
		return 0
	}
	return (m.NumRows + m.ChunkRows - 1) / m.ChunkRows
}

// BuildManifest extracts a frame's manifest: its fingerprint, schema,
// dictionaries, chunk capacity, and per-column chunk chain fingerprints.
func BuildManifest(f *frame.Frame) Manifest {
	m := Manifest{
		Fingerprint: f.Fingerprint(),
		Name:        f.Name(),
		ChunkRows:   f.ChunkRows(),
		NumRows:     f.NumRows(),
		Cols:        make([]ManifestColumn, f.NumCols()),
	}
	for i, c := range f.Columns() {
		mc := ManifestColumn{Name: c.Name(), Kind: c.Kind(), Chains: f.ChunkFingerprints(i)}
		if c.Kind() == frame.Categorical {
			mc.Dict = c.Dict()
		}
		m.Cols[i] = mc
	}
	return m
}

// EncodeManifest serializes a manifest canonically.
func EncodeManifest(m Manifest) []byte {
	var w wire.Buf
	w.B = append(w.B, manifestMagic[:]...)
	w.U64(m.Fingerprint)
	w.Str(m.Name)
	w.U64(uint64(m.ChunkRows))
	w.U64(uint64(m.NumRows))
	w.U64(uint64(len(m.Cols)))
	for _, mc := range m.Cols {
		w.Str(mc.Name)
		switch mc.Kind {
		case frame.Numeric:
			w.U8(wireNumeric)
		case frame.Categorical:
			w.U8(wireCategorical)
			w.Strs(mc.Dict)
		}
		// One chain per chunk; the count is implied by the geometry above,
		// so no prefix — a mismatched length is a truncation/trailing error.
		w.U64s(mc.Chains)
	}
	return w.B
}

// DecodeManifest parses and validates a manifest: chunk geometry in domain,
// one chain fingerprint per chunk per column, dictionaries only on
// categorical columns and free of duplicates. Cell-level integrity is
// checked later, when the chunks arrive and the reassembled frame must
// reproduce Fingerprint.
func DecodeManifest(data []byte) (Manifest, error) {
	if err := wire.CheckMagic(data, manifestMagic, decodingManifest); err != nil {
		return Manifest{}, err
	}
	r := &wire.Reader{What: decodingManifest, B: data, Off: 4}
	m := Manifest{Fingerprint: r.U64(), Name: r.Str()}
	chunkRows64 := r.U64()
	if chunkRows64 == 0 || chunkRows64%64 != 0 || chunkRows64 > 1<<31 {
		r.Failf("invalid chunk capacity %d", chunkRows64)
	}
	m.ChunkRows = int(chunkRows64)
	nRows64 := r.U64()
	if nRows64 > maxManifestRows {
		r.Failf("absurd row count %d", nRows64)
	}
	m.NumRows = int(nRows64)
	// Each column carries ≥1 byte (the kind); chains cost 8 bytes per chunk.
	nCols := r.Count(1)
	nChunks := m.NumChunks()
	if r.Err != nil {
		return Manifest{}, r.Err
	}
	m.Cols = make([]ManifestColumn, 0, nCols)
	for i := 0; i < nCols && r.Err == nil; i++ {
		mc := ManifestColumn{Name: r.Str()}
		switch kind := r.U8(); kind {
		case wireNumeric:
			mc.Kind = frame.Numeric
		case wireCategorical:
			mc.Kind = frame.Categorical
			mc.Dict = r.Strs()
			seen := make(map[string]bool, len(mc.Dict))
			for _, v := range mc.Dict {
				if seen[v] {
					r.Failf("column %q dictionary repeats %q", mc.Name, v)
					break
				}
				seen[v] = true
			}
		default:
			r.Failf("unknown column kind %d", kind)
		}
		mc.Chains = r.U64s(nChunks)
		m.Cols = append(m.Cols, mc)
	}
	if err := r.Finish(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// ManifestResponse is the manifest endpoint body: the worker's answer to a
// pure question, which changes nothing on the worker.
type ManifestResponse struct {
	// Registered means the worker holds the table already: nothing to ship.
	Registered bool `json:"registered"`
	// PrefixChunks is how many leading full chunks the worker can adopt
	// from its resident table Base (zero, and Base zero, when it holds no
	// prefix version). The stream carries every chunk after them.
	PrefixChunks int    `json:"prefixChunks,omitempty"`
	Base         uint64 `json:"base,omitempty"`
}

// Stream is a decoded chunk stream. It carries everything the worker needs
// to register the table, so no record of the negotiation has to survive
// between the two phases.
type Stream struct {
	Manifest Manifest
	// Base is the fingerprint of the resident table whose first Prefix
	// chunks the sender relies on (zero when Prefix is zero).
	Base   uint64
	Prefix int
	// Tail holds each column's schema (name, kind and dictionary, from
	// the manifest) and its cells for chunks Prefix…n−1, in manifest
	// column order: what frame.Splice appends to the base's prefix.
	Tail []frame.Cells
}

// EncodeStream serializes the chunk stream registering f on a worker that
// offered the first prefix chunks of its resident table base (0 and 0 on a
// cold worker): f's encoded manifest, the offer, then each column's cells
// from chunk prefix to the end. prefix must not exceed f.FullChunks().
func EncodeStream(f *frame.Frame, manifest []byte, base uint64, prefix int) []byte {
	start := prefix * f.ChunkRows()
	var w wire.Buf
	w.B = make([]byte, 0, 28+len(manifest)+8*f.NumCols()*(f.NumRows()-start))
	w.B = append(w.B, chunksMagic[:]...)
	w.U64(uint64(len(manifest)))
	w.B = append(w.B, manifest...)
	w.U64(base)
	w.U64(uint64(prefix))
	for _, c := range f.Columns() {
		switch c.Kind() {
		case frame.Numeric:
			w.F64s(c.Floats()[start:])
		case frame.Categorical:
			for _, code := range c.Codes()[start:] {
				w.U32(uint32(code))
			}
		}
	}
	return w.B
}

// DecodeStream parses a chunk stream strictly: its embedded manifest must
// decode, the prefix must name a base and fit the manifest's full chunks,
// the cells must fill exactly the rows after the prefix, codes must lie in
// their dictionaries, and nothing may trail. Whether the cells are the ones
// the manifest committed to is AssembleFrame's check: it reseals them
// against the manifest's chains.
func DecodeStream(data []byte) (Stream, error) {
	if err := wire.CheckMagic(data, chunksMagic, decodingChunks); err != nil {
		return Stream{}, err
	}
	r := &wire.Reader{What: decodingChunks, B: data, Off: 4}
	n := r.Count(1)
	if r.Err != nil {
		return Stream{}, r.Err
	}
	m, err := DecodeManifest(data[r.Off : r.Off+n])
	if err != nil {
		return Stream{}, fmt.Errorf("%s: %w", decodingChunks, err)
	}
	r.Off += n
	s := Stream{Manifest: m, Base: r.U64()}
	prefix64 := r.U64()
	if full := m.NumRows / m.ChunkRows; r.Err == nil && (prefix64 > uint64(full) || (prefix64 == 0) != (s.Base == 0)) {
		r.Failf("prefix of %d chunks on base %#x for a table of %d full chunks", prefix64, s.Base, full)
	}
	if r.Err != nil {
		return Stream{}, r.Err
	}
	s.Prefix = int(prefix64)
	rows := m.NumRows - s.Prefix*m.ChunkRows
	s.Tail = make([]frame.Cells, len(m.Cols))
	for i, mc := range m.Cols {
		cc := &s.Tail[i]
		cc.Name, cc.Kind, cc.Dict = mc.Name, mc.Kind, mc.Dict
		switch mc.Kind {
		case frame.Numeric:
			if cc.Floats = r.F64s(rows); cc.Floats == nil {
				cc.Floats = []float64{}
			}
		case frame.Categorical:
			if uint64(rows) > uint64(len(r.B)-r.Off)/4 {
				r.Failf("column %q truncated", mc.Name)
				return Stream{}, r.Err
			}
			cc.Codes = make([]int32, rows)
			for j := range cc.Codes {
				code := int32(r.U32())
				if code < -1 || int(code) >= len(mc.Dict) {
					r.Failf("column %q row %d: code %d out of dictionary range %d", mc.Name, s.Prefix*m.ChunkRows+j, code, len(mc.Dict))
					return Stream{}, r.Err
				}
				cc.Codes[j] = code
			}
		}
	}
	if err := r.Finish(); err != nil {
		return Stream{}, err
	}
	return s, nil
}

// EncodeInvalidate serializes an invalidate-by-fingerprint request.
func EncodeInvalidate(fp uint64) []byte {
	var w wire.Buf
	w.B = append(w.B, invalidateMagic[:]...)
	w.U64(fp)
	return w.B
}

// DecodeInvalidate parses an invalidate-by-fingerprint request.
func DecodeInvalidate(data []byte) (uint64, error) {
	if err := wire.CheckMagic(data, invalidateMagic, decodingInvalidate); err != nil {
		return 0, err
	}
	r := &wire.Reader{What: decodingInvalidate, B: data, Off: 4}
	fp := r.U64()
	if err := r.Finish(); err != nil {
		return 0, err
	}
	return fp, nil
}

// Request is the body of a characterize call: the table by fingerprint
// only, the selection by its bitmap words, and the per-run options.
type Request struct {
	Fingerprint uint64
	Sel         *frame.Bitmap
	Opts        core.Options
}

// EncodeRequest serializes a characterize request.
func EncodeRequest(req Request) []byte {
	var w wire.Buf
	w.B = append(w.B, requestMagic[:]...)
	w.U64(req.Fingerprint)
	w.Strs(req.Opts.ExcludeColumns)
	w.Bool(req.Opts.SkipReportCache)
	w.I64(int64(req.Opts.ApproxRows))
	w.U64(req.Opts.ApproxSeed)
	words := req.Sel.Words()
	w.U64(uint64(req.Sel.Len()))
	w.U64(uint64(len(words)))
	for _, word := range words {
		w.U64(word)
	}
	return w.B
}

// DecodeRequest parses a characterize request, validating the
// bitmap (word count and stray bits) via frame.BitmapFromWords.
func DecodeRequest(data []byte) (Request, error) {
	if err := wire.CheckMagic(data, requestMagic, decodingRequest); err != nil {
		return Request{}, err
	}
	r := &wire.Reader{What: decodingRequest, B: data, Off: 4}
	req := Request{Fingerprint: r.U64()}
	req.Opts.ExcludeColumns = r.Strs()
	req.Opts.SkipReportCache = r.Bool()
	req.Opts.ApproxRows = int(r.I64())
	req.Opts.ApproxSeed = r.U64()
	// The row count is not a payload length (rows pack 64 per word); it is
	// validated against the word count by BitmapFromWords below, and the
	// word count itself is bounded by the remaining bytes.
	n64 := r.U64()
	if n64 > uint64(1)<<60 {
		r.Failf("absurd bitmap length %d", n64)
	}
	n := int(n64)
	nWords := r.Count(8)
	words := make([]uint64, nWords)
	for i := range words {
		words[i] = r.U64()
	}
	if err := r.Finish(); err != nil {
		return Request{}, err
	}
	sel, err := frame.BitmapFromWords(n, words)
	if err != nil {
		return Request{}, fmt.Errorf("%s: %w", decodingRequest, err)
	}
	req.Sel = sel
	return req, nil
}
