// Package remote moves shards behind RPC: it is the HTTP implementation of
// the shard.Backend boundary, splitting the serving layer across processes
// without changing a single cache key or routing decision.
//
// A worker process (`ziggyd -worker`) wraps its own shard.Router in a
// Worker handler exposing endpoints under /api/worker/: health, stats, the
// two-phase table registration (manifest + chunks), a report-cache probe,
// characterize, and invalidate. A front process (`ziggyd -peers
// host1,host2`) builds one Client per worker and hands them to
// shard.NewWithBackends; the front routes by the same rendezvous hash over
// frame.Fingerprint the in-process router uses, so a front and its workers
// agree on table ownership with zero coordination.
//
// Everything on the wire is content-addressed and versioned. Since codec
// v4, the content addressing reaches chunk granularity:
//
//   - a table registers in two phases: the front POSTs a chunk manifest
//     (schema, dictionaries, chunk capacity, and each column's per-chunk
//     chain fingerprints), the worker answers with the chunk ranges it is
//     missing — none for a known fingerprint, a suffix when it holds a
//     prefix version of the table, everything when it is cold — and the
//     front streams only those chunks. An append to a registered table
//     ships O(delta) bytes, not O(table);
//   - each streamed chunk is its index plus its cells, nothing else: the
//     worker transplants the adopted prefix (frame.AdoptChunkPrefix) and
//     reseals only the streamed rows, so the chain resumes across the
//     splice; every resealed chunk must reproduce the manifest's chain
//     commitment and the reassembled frame's Fingerprint() the sender's, so
//     a corrupted cell is named by column and chunk and never stored;
//   - characterize and cache-probe requests carry only the table
//     fingerprint, the selection bitmap words, and the options, so a repeat
//     query is answered from the worker's report cache without the table
//     crossing the wire again (even by a front that never shipped it);
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
// chunk stream, which the worker recomputes from the cells when it reseals.
// A version-skewed peer rejects loudly rather than misparsing.
const codecVersion = 5

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
// cells: the registration offer of the two-phase negotiation. Equality of a
// column's chain fingerprint at chunk j means equality of every cell
// through chunk j (the chain is a prefix commitment), which is what lets
// the worker answer with only the chunk ranges it is missing.
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

// ChunkBounds returns the row range [start, end) of chunk j.
func (m Manifest) ChunkBounds(j int) (start, end int) {
	start = j * m.ChunkRows
	end = start + m.ChunkRows
	if end > m.NumRows {
		end = m.NumRows
	}
	return start, end
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

// ChunkRange is a half-open range [Start, End) of chunk indices. The worker
// answers a manifest with the ranges it is missing; the chunk stream must
// cover exactly those.
type ChunkRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// CountChunks sums the chunk counts of ranges after validating them:
// ascending, non-empty, non-overlapping, within [0, numChunks). Overlap or
// disorder is a protocol violation, rejected loudly rather than deduped.
func CountChunks(ranges []ChunkRange, numChunks int) (int, error) {
	total, prev := 0, 0
	for i, rg := range ranges {
		if rg.Start < prev || rg.End <= rg.Start || rg.End > numChunks {
			return 0, fmt.Errorf("remote: invalid chunk range %d: [%d,%d) of %d chunks after %d", i, rg.Start, rg.End, numChunks, prev)
		}
		total += rg.End - rg.Start
		prev = rg.End
	}
	return total, nil
}

// ManifestResponse is the manifest endpoint body: the worker's side of the
// negotiation.
type ManifestResponse struct {
	// Fingerprint echoes the table's content fingerprint (hex).
	Fingerprint string `json:"fingerprint"`
	// Registered means the worker holds the table already (or could
	// assemble it entirely from resident chunks) — nothing to ship.
	Registered bool `json:"registered"`
	// PrefixChunks is how many leading full chunks the worker will adopt
	// from a resident prefix version of the table.
	PrefixChunks int `json:"prefixChunks,omitempty"`
	// Missing lists the chunk ranges the front must stream.
	Missing []ChunkRange `json:"missing,omitempty"`
}

// ChunkColumn is one column's slice of one streamed chunk. Floats holds
// numeric cells; Codes categorical dictionary codes. Exactly one is
// non-nil, matching the manifest's column kind.
type ChunkColumn struct {
	Floats []float64
	Codes  []int32
}

// ChunkPayload is one self-delimiting streamed chunk: its index plus every
// column's slice.
type ChunkPayload struct {
	Index int
	Cols  []ChunkColumn
}

// ExtractChunks builds the chunk payloads of f covering ranges (the
// client's side of the chunk stream).
func ExtractChunks(f *frame.Frame, ranges []ChunkRange) ([]ChunkPayload, error) {
	total, err := CountChunks(ranges, f.NumChunks())
	if err != nil {
		return nil, err
	}
	out := make([]ChunkPayload, 0, total)
	for _, rg := range ranges {
		for j := rg.Start; j < rg.End; j++ {
			start, end := f.ChunkBounds(j)
			p := ChunkPayload{Index: j, Cols: make([]ChunkColumn, f.NumCols())}
			for i, c := range f.Columns() {
				switch c.Kind() {
				case frame.Numeric:
					p.Cols[i].Floats = c.Floats()[start:end]
				case frame.Categorical:
					p.Cols[i].Codes = c.Codes()[start:end]
				}
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// EncodeChunks serializes the chunk stream for f covering exactly the
// ranges the worker reported missing.
func EncodeChunks(f *frame.Frame, ranges []ChunkRange) ([]byte, error) {
	chunks, err := ExtractChunks(f, ranges)
	if err != nil {
		return nil, err
	}
	return EncodeChunkPayloads(f.Fingerprint(), chunks), nil
}

// EncodeChunkPayloads serializes pre-extracted chunk payloads canonically.
func EncodeChunkPayloads(fp uint64, chunks []ChunkPayload) []byte {
	var w wire.Buf
	w.B = append(w.B, chunksMagic[:]...)
	w.U64(fp)
	w.U64(uint64(len(chunks)))
	for _, p := range chunks {
		w.U64(uint64(p.Index))
		for _, cc := range p.Cols {
			if cc.Floats != nil {
				w.F64s(cc.Floats)
			} else {
				for _, code := range cc.Codes {
					w.U32(uint32(code))
				}
			}
		}
	}
	return w.B
}

// DecodeChunks parses a chunk stream against its manifest, which fixes the
// geometry: how many cells each chunk of each column carries. It rejects —
// loudly, not by coercion — out-of-order or duplicate chunk indices (the
// overlap case), out-of-dictionary codes, and truncated or trailing
// payloads. Whether the cells are the ones the manifest committed to is
// AssembleFrame's check: it reseals them against the manifest's chains.
func DecodeChunks(data []byte, m Manifest) ([]ChunkPayload, error) {
	if err := wire.CheckMagic(data, chunksMagic, decodingChunks); err != nil {
		return nil, err
	}
	r := &wire.Reader{What: decodingChunks, B: data, Off: 4}
	if fp := r.U64(); r.Err == nil && fp != m.Fingerprint {
		return nil, fmt.Errorf("%s: stream is for table %#x, manifest describes %#x", decodingChunks, fp, m.Fingerprint)
	}
	// Each chunk carries ≥8 bytes (its index) even for a zero-column table.
	nChunks := r.Count(8)
	numChunks := m.NumChunks()
	out := make([]ChunkPayload, 0, nChunks)
	prev := -1
	for k := 0; k < nChunks && r.Err == nil; k++ {
		idx64 := r.U64()
		if r.Err != nil {
			break
		}
		if idx64 >= uint64(numChunks) || int(idx64) <= prev {
			r.Failf("chunk index %d out of order (previous %d, table has %d chunks)", idx64, prev, numChunks)
			break
		}
		p := ChunkPayload{Index: int(idx64), Cols: make([]ChunkColumn, len(m.Cols))}
		prev = p.Index
		start, end := m.ChunkBounds(p.Index)
		rows := end - start
		for i, mc := range m.Cols {
			var cc ChunkColumn
			switch mc.Kind {
			case frame.Numeric:
				cc.Floats = r.F64s(rows)
				if cc.Floats == nil {
					cc.Floats = []float64{}
				}
			case frame.Categorical:
				if uint64(rows) > uint64(len(r.B)-r.Off)/4 {
					r.Failf("column %q chunk %d truncated", mc.Name, p.Index)
				}
				cc.Codes = make([]int32, rows)
				for j := range cc.Codes {
					cc.Codes[j] = int32(r.U32())
				}
				for _, code := range cc.Codes {
					if code < -1 || int(code) >= len(mc.Dict) {
						r.Failf("column %q chunk %d: code %d out of dictionary range %d", mc.Name, p.Index, code, len(mc.Dict))
						break
					}
				}
			}
			p.Cols[i] = cc
		}
		out = append(out, p)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
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

// Request is the body of a characterize or cache-probe call: the table by
// fingerprint only, the selection by its bitmap words, and the per-run
// options.
type Request struct {
	Fingerprint uint64
	Sel         *frame.Bitmap
	Opts        core.Options
}

// EncodeRequest serializes a characterize/cache-probe request.
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

// DecodeRequest parses a characterize/cache-probe request, validating the
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
