package remote

import (
	"bytes"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
)

// codecFrame builds a table exercising every payload shape the chunk
// transport carries: NaN/±Inf/−0 numeric cells, categorical codes with
// NULLs, and a dictionary whose order differs from first-occurrence
// interning.
func codecFrame(t testing.TB) *frame.Frame {
	t.Helper()
	cat, err := frame.NewCategoricalColumnFromCodes("city",
		[]int32{2, -1, 0, 1, 2}, []string{"zzz", "aaa", "mmm"})
	if err != nil {
		t.Fatal(err)
	}
	return frame.MustNew("wire", []*frame.Column{
		frame.NewNumericColumn("x", []float64{1.5, math.NaN(), math.Inf(1), math.Copysign(0, -1), -3}),
		cat,
	})
}

// chunkedFrame builds a multi-chunk table (capacity 64, 300 rows → 5 chunks,
// the last partial) with both column kinds.
func chunkedFrame(t testing.TB) *frame.Frame {
	t.Helper()
	vals := make([]float64, 300)
	strs := make([]string, 300)
	for i := range vals {
		vals[i] = float64(i % 11)
		if i%13 == 0 {
			vals[i] = math.NaN()
		}
		strs[i] = string(rune('a' + i%3))
	}
	f, err := frame.NewChunked("chunked", []*frame.Column{
		frame.NewNumericColumn("n", vals),
		frame.NewCategoricalColumn("c", strs),
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// allRanges returns the full chunk range of f.
func allRanges(f *frame.Frame) []ChunkRange {
	return []ChunkRange{{Start: 0, End: f.NumChunks()}}
}

// TestManifestCodecRoundTrip pins the registration offer: the manifest
// carries the schema, dictionaries, chunk geometry, and every per-column
// chunk chain commitment, and re-encodes canonically.
func TestManifestCodecRoundTrip(t *testing.T) {
	for _, f := range []*frame.Frame{codecFrame(t), chunkedFrame(t), frame.MustNew("empty", nil)} {
		m := BuildManifest(f)
		enc := EncodeManifest(m)
		dec, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if dec.Fingerprint != f.Fingerprint() || dec.Name != f.Name() ||
			dec.ChunkRows != f.ChunkRows() || dec.NumRows != f.NumRows() {
			t.Fatalf("%s: decoded header %+v", f.Name(), dec)
		}
		if dec.NumChunks() != f.NumChunks() || len(dec.Cols) != f.NumCols() {
			t.Fatalf("%s: decoded geometry %d chunks × %d cols", f.Name(), dec.NumChunks(), len(dec.Cols))
		}
		for i, mc := range dec.Cols {
			want := f.ChunkFingerprints(i)
			if len(mc.Chains) != len(want) {
				t.Fatalf("%s col %d: %d chains, want %d", f.Name(), i, len(mc.Chains), len(want))
			}
			for j := range want {
				if mc.Chains[j] != want[j] {
					t.Errorf("%s col %d chunk %d: chain %#x, want %#x", f.Name(), i, j, mc.Chains[j], want[j])
				}
			}
		}
		if again := EncodeManifest(dec); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoded manifest differs", f.Name())
		}
	}
}

// TestManifestCodecRejectsCorruption covers the manifest decode error
// paths: version skew, truncation, trailing bytes, bad geometry, duplicate
// dictionary values.
func TestManifestCodecRejectsCorruption(t *testing.T) {
	enc := EncodeManifest(BuildManifest(chunkedFrame(t)))
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("XXX\x04"), enc[4:]...),
		"past version":   append([]byte("ZGM\x04"), enc[4:]...),
		"future version": append([]byte("ZGM\x06"), enc[4:]...),
		"truncated":      enc[:len(enc)-3],
		"trailing":       append(append([]byte(nil), enc...), 1),
	}
	for name, data := range cases {
		if _, err := DecodeManifest(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An unaligned chunk capacity is rejected. The chunkRows field follows
	// the magic (4), fingerprint (8), and name (8-byte length + 7 bytes
	// "chunked").
	bad := append([]byte(nil), enc...)
	bad[4+8+8+7] ^= 0x01
	if _, err := DecodeManifest(bad); err == nil {
		t.Error("unaligned chunk capacity accepted")
	}
	// A duplicate dictionary value is rejected loudly.
	dup := BuildManifest(chunkedFrame(t))
	dup.Cols[1].Dict = []string{"a", "b", "a"}
	if _, err := DecodeManifest(EncodeManifest(dup)); err == nil {
		t.Error("duplicate dictionary value accepted")
	}
}

// TestChunkCodecRoundTrip pins the chunk stream: extracting any subset of
// chunks, encoding, and decoding against the manifest reproduces the cells
// bit for bit — and re-encodes canonically.
func TestChunkCodecRoundTrip(t *testing.T) {
	f := chunkedFrame(t)
	m := BuildManifest(f)
	ranges := []ChunkRange{{Start: 1, End: 3}, {Start: 4, End: 5}}
	enc, err := EncodeChunks(f, ranges)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := DecodeChunks(enc, m)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := []int{1, 2, 4}
	if len(chunks) != len(wantIdx) {
		t.Fatalf("decoded %d chunks, want %d", len(chunks), len(wantIdx))
	}
	for k, p := range chunks {
		if p.Index != wantIdx[k] {
			t.Fatalf("chunk %d has index %d, want %d", k, p.Index, wantIdx[k])
		}
		start, _ := f.ChunkBounds(p.Index)
		for i, c := range f.Columns() {
			cc := p.Cols[i]
			switch c.Kind() {
			case frame.Numeric:
				for j, v := range cc.Floats {
					orig := c.Floats()[start+j]
					if math.Float64bits(v) != math.Float64bits(orig) {
						t.Fatalf("chunk %d col %d cell %d: %v, want %v", p.Index, i, j, v, orig)
					}
				}
			case frame.Categorical:
				for j, code := range cc.Codes {
					if code != c.Codes()[start+j] {
						t.Fatalf("chunk %d col %d code %d diverged", p.Index, i, j)
					}
				}
			}
		}
	}
	if again := EncodeChunkPayloads(f.Fingerprint(), chunks); !bytes.Equal(again, enc) {
		t.Error("re-encoded chunk stream differs")
	}
}

// TestChunkCodecRejectsCorruption covers the chunk-stream error paths:
// truncated chunks, version skew, overlapping/out-of-order ranges,
// wrong-table streams, out-of-dictionary codes, and a flipped cell, which
// decodes but fails AssembleFrame's reseal and the worker's chunks
// endpoint. Every rejection is loud; nothing is coerced or deduped.
func TestChunkCodecRejectsCorruption(t *testing.T) {
	f := chunkedFrame(t)
	m := BuildManifest(f)
	enc, err := EncodeChunks(f, allRanges(f))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeChunks(enc, m); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}

	t.Run("truncated chunk", func(t *testing.T) {
		if _, err := DecodeChunks(enc[:len(enc)-5], m); err == nil {
			t.Error("truncated stream accepted")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeChunks(append(append([]byte(nil), enc...), 9), m); err == nil {
			t.Error("trailing bytes accepted")
		}
	})
	t.Run("version skew", func(t *testing.T) {
		for _, v := range []byte{3, 4, 6} {
			if _, err := DecodeChunks(append([]byte{'Z', 'G', 'C', v}, enc[4:]...), m); err == nil {
				t.Errorf("version %d stream accepted", v)
			}
		}
	})
	t.Run("wrong table", func(t *testing.T) {
		other := BuildManifest(codecFrame(t))
		if _, err := DecodeChunks(enc, other); err == nil {
			t.Error("stream for another fingerprint accepted")
		}
	})
	t.Run("overlapping ranges rejected at encode", func(t *testing.T) {
		if _, err := EncodeChunks(f, []ChunkRange{{0, 2}, {1, 3}}); err == nil {
			t.Error("overlapping ranges accepted")
		}
		if _, err := EncodeChunks(f, []ChunkRange{{2, 2}}); err == nil {
			t.Error("empty range accepted")
		}
		if _, err := EncodeChunks(f, []ChunkRange{{3, 99}}); err == nil {
			t.Error("out-of-bounds range accepted")
		}
	})
	t.Run("duplicate chunk index", func(t *testing.T) {
		chunks, err := ExtractChunks(f, []ChunkRange{{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		bad := EncodeChunkPayloads(f.Fingerprint(), []ChunkPayload{chunks[0], chunks[0]})
		if _, err := DecodeChunks(bad, m); err == nil {
			t.Error("duplicate chunk index accepted")
		}
	})
	t.Run("out-of-order chunks", func(t *testing.T) {
		chunks, err := ExtractChunks(f, []ChunkRange{{0, 2}})
		if err != nil {
			t.Fatal(err)
		}
		bad := EncodeChunkPayloads(f.Fingerprint(), []ChunkPayload{chunks[1], chunks[0]})
		if _, err := DecodeChunks(bad, m); err == nil {
			t.Error("out-of-order chunks accepted")
		}
	})
	t.Run("cell flipped in stream", func(t *testing.T) {
		chunks, err := ExtractChunks(f, allRanges(f))
		if err != nil {
			t.Fatal(err)
		}
		vals := append([]float64(nil), chunks[2].Cols[0].Floats...)
		vals[5] += 1
		chunks[2].Cols[0].Floats = vals
		bad := EncodeChunkPayloads(f.Fingerprint(), chunks)
		decoded, err := DecodeChunks(bad, m)
		if err != nil {
			t.Fatalf("well-formed stream rejected at decode: %v", err)
		}
		_, err = AssembleFrame(m, nil, 0, decoded)
		if err == nil || !strings.Contains(err.Error(), `column "n" chunk 2`) {
			t.Errorf("assemble error = %v, want one naming column \"n\" chunk 2", err)
		}

		// Over the wire: the worker negotiates, then refuses the stream with
		// 400 and stores nothing.
		w, ts := newWorker(t, 1)
		post := func(path string, body []byte) int {
			t.Helper()
			resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if code := post(PathManifest, EncodeManifest(m)); code != http.StatusOK {
			t.Fatalf("manifest status %d", code)
		}
		if code := post(PathChunks, bad); code != http.StatusBadRequest {
			t.Errorf("flipped-cell chunk stream status %d, want 400", code)
		}
		if _, ok := w.table(m.Fingerprint); ok {
			t.Error("corrupted table reached the worker's table store")
		}
	})
	t.Run("code out of dictionary", func(t *testing.T) {
		chunks, err := ExtractChunks(f, allRanges(f))
		if err != nil {
			t.Fatal(err)
		}
		codes := append([]int32(nil), chunks[0].Cols[1].Codes...)
		codes[3] = 99
		chunks[0].Cols[1].Codes = codes
		bad := EncodeChunkPayloads(f.Fingerprint(), chunks)
		if _, err := DecodeChunks(bad, m); err == nil {
			t.Error("out-of-dictionary code accepted")
		}
	})
}

// TestAssembleFrameRoundTrip pins the whole transport in process: manifest
// out, chunks out, frame reassembled from scratch and from a prefix base,
// fingerprint identical to the sender's in both cases.
func TestAssembleFrameRoundTrip(t *testing.T) {
	f := chunkedFrame(t)
	m := BuildManifest(f)

	// Cold: every chunk streamed, no base.
	chunks, err := ExtractChunks(f, allRanges(f))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := AssembleFrame(m, nil, 0, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Fingerprint() != f.Fingerprint() || cold.ChunkRows() != f.ChunkRows() {
		t.Fatal("cold reassembly diverged")
	}

	// Warm: adopt 4 full chunks from the (identical-prefix) original and
	// stream only the last. Only the streamed chunk's rows may be rescanned.
	tail, err := ExtractChunks(f, []ChunkRange{{Start: 4, End: 5}})
	if err != nil {
		t.Fatal(err)
	}
	before := frame.ChunkScans()
	warm, err := AssembleFrame(m, cold, 4, tail)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fingerprint() != f.Fingerprint() {
		t.Fatal("warm reassembly diverged")
	}
	if scans := frame.ChunkScans() - before; scans > 2 {
		t.Errorf("prefix adoption rescanned %d chunks, want ≤ 2 (one partial tail × 2 cols)", scans)
	}

	// A wrong splice is caught: stream the tail of a different table under
	// f's manifest.
	g := chunkedFrame(t)
	gVals := g.Col(0).Floats()
	gVals[280] += 1 // perturb inside the last chunk, then rebuild
	g2, err := frame.NewChunked("chunked", []*frame.Column{
		frame.NewNumericColumn("n", gVals),
		frame.NewCategoricalColumn("c", func() []string {
			strs := make([]string, 300)
			for i := range strs {
				strs[i] = string(rune('a' + i%3))
			}
			return strs
		}()),
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	badTail, err := ExtractChunks(g2, []ChunkRange{{Start: 4, End: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleFrame(m, cold, 4, badTail); err == nil {
		t.Error("spliced foreign tail reassembled without a chain error")
	}
}

// TestInvalidateCodecRoundTrip pins the invalidate request format.
func TestInvalidateCodecRoundTrip(t *testing.T) {
	enc := EncodeInvalidate(0xabcdef)
	fp, err := DecodeInvalidate(enc)
	if err != nil || fp != 0xabcdef {
		t.Fatalf("round trip: %v %#x", err, fp)
	}
	for name, data := range map[string][]byte{
		"empty":     {},
		"truncated": enc[:10],
		"trailing":  append(append([]byte(nil), enc...), 0),
		"skewed":    append([]byte("ZGI\x03"), enc[4:]...),
	} {
		if _, err := DecodeInvalidate(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRequestCodecRoundTrip pins the characterize/probe request format.
func TestRequestCodecRoundTrip(t *testing.T) {
	sel := frame.NewBitmap(100)
	for i := 0; i < 100; i += 7 {
		sel.Set(i)
	}
	req := Request{
		Fingerprint: 0xdeadbeefcafe,
		Sel:         sel,
		Opts: core.Options{
			ExcludeColumns:  []string{"a", ""},
			SkipReportCache: true,
			ApproxRows:      512,
			ApproxSeed:      0xfeedface,
		},
	}
	dec, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Fingerprint != req.Fingerprint || !dec.Sel.Equal(sel) || dec.Sel.Fingerprint() != sel.Fingerprint() {
		t.Error("request fingerprint/selection did not survive")
	}
	if len(dec.Opts.ExcludeColumns) != 2 || dec.Opts.ExcludeColumns[0] != "a" || !dec.Opts.SkipReportCache {
		t.Errorf("options did not survive: %+v", dec.Opts)
	}
	if dec.Opts.ApproxRows != 512 || dec.Opts.ApproxSeed != 0xfeedface {
		t.Errorf("approximate options did not survive: %+v", dec.Opts)
	}

	enc := EncodeRequest(req)
	for name, data := range map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("ZGF\x04"), enc[4:]...),
		"past version": append([]byte("ZGQ\x03"), enc[4:]...),
		"truncated":    enc[:len(enc)-1],
		"trailing":     append(append([]byte(nil), enc...), 0),
	} {
		if _, err := DecodeRequest(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A stray bit beyond the bitmap length is a decode error, not a silent
	// selection change.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] |= 0x80
	if _, err := DecodeRequest(bad); err == nil {
		t.Error("stray selection bit accepted")
	}
}
