package remote

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"reflect"
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

// streamFor encodes the chunk stream registering f against a worker that
// offered the first prefix chunks of the resident table base.
func streamFor(f *frame.Frame, base uint64, prefix int) []byte {
	return EncodeStream(f, EncodeManifest(BuildManifest(f)), base, prefix)
}

// tailOffset returns where the cells of a stream for f begin: magic (4),
// manifest length (8) and bytes, base (8), prefix (8).
func tailOffset(f *frame.Frame) int {
	return 4 + 8 + len(EncodeManifest(BuildManifest(f))) + 8 + 8
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
		"past version":   append([]byte("ZGM\x05"), enc[4:]...),
		"future version": append([]byte("ZGM\x07"), enc[4:]...),
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

// TestChunkCodecRoundTrip pins the chunk stream: it carries the manifest,
// the offer it answers and every cell after the prefix bit for bit, and
// re-encodes canonically.
func TestChunkCodecRoundTrip(t *testing.T) {
	f := chunkedFrame(t)
	manifest := EncodeManifest(BuildManifest(f))
	for _, offer := range []struct {
		base   uint64
		prefix int
	}{{0, 0}, {0xba5e, 2}, {0xba5e, f.FullChunks()}} {
		enc := EncodeStream(f, manifest, offer.base, offer.prefix)
		s, err := DecodeStream(enc)
		if err != nil {
			t.Fatalf("prefix %d: %v", offer.prefix, err)
		}
		if !bytes.Equal(EncodeManifest(s.Manifest), manifest) || s.Base != offer.base || s.Prefix != offer.prefix {
			t.Fatalf("prefix %d: decoded header base %#x prefix %d", offer.prefix, s.Base, s.Prefix)
		}
		start := offer.prefix * f.ChunkRows()
		for i, c := range f.Columns() {
			cc := s.Tail[i]
			switch c.Kind() {
			case frame.Numeric:
				if len(cc.Floats) != f.NumRows()-start {
					t.Fatalf("prefix %d col %d: %d cells", offer.prefix, i, len(cc.Floats))
				}
				for j, v := range cc.Floats {
					if orig := c.Floats()[start+j]; math.Float64bits(v) != math.Float64bits(orig) {
						t.Fatalf("prefix %d col %d row %d: %v, want %v", offer.prefix, i, start+j, v, orig)
					}
				}
			case frame.Categorical:
				if len(cc.Codes) != f.NumRows()-start {
					t.Fatalf("prefix %d col %d: %d codes", offer.prefix, i, len(cc.Codes))
				}
				for j, code := range cc.Codes {
					if code != c.Codes()[start+j] {
						t.Fatalf("prefix %d col %d row %d: code diverged", offer.prefix, i, start+j)
					}
				}
			}
		}
	}
}

// TestChunkCodecRejectsCorruption covers the chunk-stream error paths:
// truncation, trailing bytes, version skew, a manifest whose geometry the
// cells do not fill, prefixes outside the table, and out-of-dictionary
// codes are rejected at decode; a flipped cell, a duplicated chunk and
// swapped chunks decode but fail AssembleFrame's reseal and the worker's
// chunks endpoint. Every rejection is loud; nothing is coerced or deduped.
func TestChunkCodecRejectsCorruption(t *testing.T) {
	f := chunkedFrame(t)
	m := BuildManifest(f)
	enc := streamFor(f, 0, 0)
	if _, err := DecodeStream(enc); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
	off := tailOffset(f)
	// numericChunk returns the byte range of chunk j of column "n" in enc.
	numericChunk := func(j int) (int, int) {
		start, end := f.ChunkBounds(j)
		return off + 8*start, off + 8*end
	}
	// assembleErr decodes a well-formed but wrong stream and returns
	// AssembleFrame's verdict.
	assembleErr := func(t *testing.T, bad []byte) error {
		t.Helper()
		s, err := DecodeStream(bad)
		if err != nil {
			t.Fatalf("well-formed stream rejected at decode: %v", err)
		}
		_, err = AssembleFrame(s, nil)
		return err
	}

	t.Run("truncated chunk", func(t *testing.T) {
		if _, err := DecodeStream(enc[:len(enc)-5]); err == nil {
			t.Error("truncated stream accepted")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeStream(append(append([]byte(nil), enc...), 9)); err == nil {
			t.Error("trailing bytes accepted")
		}
	})
	t.Run("version skew", func(t *testing.T) {
		for _, v := range []byte{4, 5, 7} {
			if _, err := DecodeStream(append([]byte{'Z', 'G', 'C', v}, enc[4:]...)); err == nil {
				t.Errorf("version %d stream accepted", v)
			}
		}
	})
	t.Run("wrong table", func(t *testing.T) {
		other := EncodeManifest(BuildManifest(codecFrame(t)))
		if _, err := DecodeStream(EncodeStream(f, other, 0, 0)); err == nil {
			t.Error("cells of another table's geometry accepted")
		}
	})
	t.Run("prefix out of range", func(t *testing.T) {
		manifest := EncodeManifest(m)
		withOffer := func(base uint64, prefix int) []byte {
			bad := EncodeStream(f, manifest, 0, 0)
			binary.LittleEndian.PutUint64(bad[off-16:], base)
			binary.LittleEndian.PutUint64(bad[off-8:], uint64(prefix))
			return bad
		}
		for _, c := range []struct {
			name   string
			base   uint64
			prefix int
		}{
			{"past the full chunks", 1, f.FullChunks() + 1},
			{"no base", 0, 2},
			{"base without prefix", 1, 0},
			{"absurd", 1, -1},
		} {
			if _, err := DecodeStream(withOffer(c.base, c.prefix)); err == nil {
				t.Errorf("%s: accepted", c.name)
			}
		}
	})
	t.Run("duplicated chunk", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		lo0, hi0 := numericChunk(0)
		lo1, _ := numericChunk(1)
		copy(bad[lo1:], enc[lo0:hi0])
		if err := assembleErr(t, bad); err == nil || !strings.Contains(err.Error(), `column "n" chunk 1`) {
			t.Errorf("assemble error = %v, want one naming column \"n\" chunk 1", err)
		}
	})
	t.Run("out-of-order chunks", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		lo1, hi1 := numericChunk(1)
		lo2, hi2 := numericChunk(2)
		copy(bad[lo1:], enc[lo2:hi2])
		copy(bad[lo2:], enc[lo1:hi1])
		if err := assembleErr(t, bad); err == nil || !strings.Contains(err.Error(), `column "n" chunk 1`) {
			t.Errorf("assemble error = %v, want one naming column \"n\" chunk 1", err)
		}
	})
	t.Run("cell flipped in stream", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		lo, _ := numericChunk(2)
		bad[lo+5*8] ^= 0x01
		if err := assembleErr(t, bad); err == nil || !strings.Contains(err.Error(), `column "n" chunk 2`) {
			t.Errorf("assemble error = %v, want one naming column \"n\" chunk 2", err)
		}

		// Over the wire: the stream needs no negotiation before it, and the
		// worker refuses it with 400 and stores nothing.
		w, ts := newWorker(t, 1)
		resp, err := http.Post(ts.URL+PathChunks, "application/octet-stream", bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("flipped-cell chunk stream status %d, want 400", resp.StatusCode)
		}
		if _, ok := w.table(m.Fingerprint); ok {
			t.Error("corrupted table reached the worker's table store")
		}
	})
	t.Run("code out of dictionary", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(bad[off+8*f.NumRows()+4*3:], 99)
		if _, err := DecodeStream(bad); err == nil {
			t.Error("out-of-dictionary code accepted")
		}
	})
}

// TestAssembleFrameRoundTrip pins the whole transport in process: stream
// out, frame reassembled from scratch and from a prefix base, fingerprint
// identical to the sender's in both cases.
func TestAssembleFrameRoundTrip(t *testing.T) {
	f := chunkedFrame(t)
	assemble := func(stream []byte, base *frame.Frame) (*frame.Frame, error) {
		t.Helper()
		s, err := DecodeStream(stream)
		if err != nil {
			t.Fatal(err)
		}
		return AssembleFrame(s, base)
	}

	// Cold: every chunk streamed, no base.
	cold, err := assemble(streamFor(f, 0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Fingerprint() != f.Fingerprint() || cold.ChunkRows() != f.ChunkRows() {
		t.Fatal("cold reassembly diverged")
	}

	// Warm: adopt 4 full chunks from the (identical-prefix) original and
	// stream only the last. Only the streamed chunk's rows may be rescanned.
	before := frame.ChunkScans()
	warm, err := assemble(streamFor(f, cold.Fingerprint(), 4), cold)
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
	badTail := EncodeStream(g2, EncodeManifest(BuildManifest(f)), cold.Fingerprint(), 4)
	if _, err := assemble(badTail, cold); err == nil {
		t.Error("spliced foreign tail reassembled without a chain error")
	}

	// A manifest whose chains match but whose fingerprint is not the
	// sender's fails the final check.
	lying := BuildManifest(f)
	lying.Fingerprint ^= 1
	if _, err := assemble(EncodeStream(f, EncodeManifest(lying), 0, 0), nil); err == nil ||
		!strings.Contains(err.Error(), "sender computed") {
		t.Errorf("assemble error = %v, want the final fingerprint check", err)
	}
}

// TestAssembleFrameRejectsMismatchedBase hands AssembleFrame bases that
// cannot carry the stream's prefix — another column kind, name, count,
// dictionary or chunk capacity — without the worker's matchPrefix filter
// in front: each must be an error before a cell is copied, never a panic.
func TestAssembleFrameRejectsMismatchedBase(t *testing.T) {
	f := chunkedFrame(t) // "n" numeric, "c" categorical with dictionary a, b, c
	s, err := DecodeStream(streamFor(f, 0xba5e, 2))
	if err != nil {
		t.Fatal(err)
	}
	prefixOf := func(chunkRows int, cols ...*frame.Column) *frame.Frame {
		t.Helper()
		g, err := frame.NewChunked("chunked", cols, chunkRows)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	num := frame.NewNumericColumn("n", f.Col(0).Floats()[:128])
	cat, err := frame.NewCategoricalColumnFromCodes("c", f.Col(1).Codes()[:128], f.Col(1).Dict())
	if err != nil {
		t.Fatal(err)
	}
	strs := make([]string, 128)
	for i := range strs {
		strs[i] = string(rune('c' - i%3)) // dictionary c, b, a
	}
	if got, err := AssembleFrame(s, prefixOf(64, num, cat)); err != nil || got.Fingerprint() != f.Fingerprint() {
		t.Fatalf("control: matching base failed: %v", err)
	}
	for name, base := range map[string]*frame.Frame{
		"kind":         prefixOf(64, frame.NewCategoricalColumn("n", strs), cat),
		"name":         prefixOf(64, frame.NewNumericColumn("m", num.Floats()), cat),
		"column count": prefixOf(64, num),
		"dictionary":   prefixOf(64, num, frame.NewCategoricalColumn("c", strs)),
		"capacity":     prefixOf(128, num, cat),
	} {
		if _, err := AssembleFrame(s, base); err == nil {
			t.Errorf("base with another %s accepted", name)
		}
	}
}

// TestUnusedDictionaryValueShips pins a dictionary layout interning cannot
// produce: a base whose dictionary holds a value no row uses. Appending
// keeps that layout (new values follow it), and shipping the grown version
// over a partial prefix of the base reassembles the same dictionary, chunk
// chains and fingerprint as the sender's.
func TestUnusedDictionaryValueShips(t *testing.T) {
	const rows, tailRows = 200, 100 // chunks of 64: three full, one partial
	vals := make([]float64, rows)
	codes := make([]int32, rows)
	for i := range codes {
		vals[i] = float64(i % 5)
		codes[i] = []int32{0, 2, -1}[i%3] // "unused" (code 1) never occurs
	}
	cat, err := frame.NewCategoricalColumnFromCodes("c", codes, []string{"x", "unused", "y"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := frame.NewChunked("t", []*frame.Column{frame.NewNumericColumn("n", vals), cat}, 64)
	if err != nil {
		t.Fatal(err)
	}
	tvals := make([]float64, tailRows)
	strs := make([]string, tailRows)
	for i := range strs {
		tvals[i] = float64(i % 7)
		strs[i] = []string{"z", "y", "x"}[i%3]
	}
	tail, err := frame.NewChunked("t", []*frame.Column{frame.NewNumericColumn("n", tvals), frame.NewCategoricalColumn("c", strs)}, 64)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := base.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x", "unused", "y", "z"}; !reflect.DeepEqual(grown.Col(1).Dict(), want) {
		t.Fatalf("grown dictionary %q, want %q", grown.Col(1).Dict(), want)
	}

	m := BuildManifest(grown)
	if k := matchPrefix(m, base); k != base.FullChunks() {
		t.Fatalf("worker would offer %d chunks of the base, want its %d full ones", k, base.FullChunks())
	}
	s, err := DecodeStream(EncodeStream(grown, EncodeManifest(m), base.Fingerprint(), base.FullChunks()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AssembleFrame(s, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Col(1).Dict(), grown.Col(1).Dict()) || got.Fingerprint() != grown.Fingerprint() {
		t.Errorf("shipped version has dictionary %q and fingerprint %#x, sender %q and %#x",
			got.Col(1).Dict(), got.Fingerprint(), grown.Col(1).Dict(), grown.Fingerprint())
	}
	for i := range got.Columns() {
		if !reflect.DeepEqual(got.ChunkFingerprints(i), grown.ChunkFingerprints(i)) {
			t.Errorf("column %d: chunk chains diverged", i)
		}
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

// TestRequestCodecRoundTrip pins the characterize request format.
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
