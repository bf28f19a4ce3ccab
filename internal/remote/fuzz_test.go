package remote

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/frame"
)

// fuzzFrames builds the seed tables for the transport fuzzers: the
// corruption fixture, a zero-column frame, and chunked layouts — multi-chunk
// at the minimum capacity, a boundary-exact row count, and an appended frame
// whose seal was built incrementally.
func fuzzFrames() []*frame.Frame {
	cat, err := frame.NewCategoricalColumnFromCodes("city",
		[]int32{2, -1, 0, 1, 2}, []string{"zzz", "aaa", "mmm"})
	if err != nil {
		panic(err)
	}
	flat := frame.MustNew("wire", []*frame.Column{
		frame.NewNumericColumn("x", []float64{1.5, math.NaN(), math.Inf(1), math.Copysign(0, -1), -3}),
		cat,
	})

	vals := make([]float64, 200)
	strs := make([]string, 200)
	for i := range vals {
		vals[i] = float64(i % 7)
		strs[i] = string(rune('a' + i%3))
	}
	chunked, err := frame.NewChunked("chunked", []*frame.Column{
		frame.NewNumericColumn("n", vals),
		frame.NewCategoricalColumn("c", strs),
	}, 64)
	if err != nil {
		panic(err)
	}
	exact, err := frame.NewChunked("exact", []*frame.Column{
		frame.NewNumericColumn("n", vals[:128]),
	}, 64)
	if err != nil {
		panic(err)
	}
	tail, err := frame.NewChunked("exact", []*frame.Column{
		frame.NewNumericColumn("n", vals[128:]),
	}, 64)
	if err != nil {
		panic(err)
	}
	appended, err := exact.Append(tail)
	if err != nil {
		panic(err)
	}
	return []*frame.Frame{flat, frame.MustNew("empty", nil), chunked, exact, appended}
}

// FuzzManifestCodec hammers the registration-offer decoder: arbitrary bytes
// must either be rejected or decode into a manifest that re-encodes
// canonically.
func FuzzManifestCodec(f *testing.F) {
	f.Add([]byte{})
	var full []byte
	for _, fr := range fuzzFrames() {
		enc := EncodeManifest(BuildManifest(fr))
		f.Add(enc)
		full = enc
	}
	// Mild corruptions steer the fuzzer toward deep field boundaries
	// instead of dying on the magic check: a truncation, a chunk-capacity
	// mangle, and a stale version header on a current body.
	f.Add(full[:len(full)-2])
	mangled := append([]byte(nil), full...)
	mangled[20] ^= 0x40
	f.Add(mangled)
	f.Add(append([]byte("ZGM\x02"), full[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return // rejection is fine; panics and false accepts are not
		}
		if again := EncodeManifest(m); !bytes.Equal(again, data) {
			t.Fatalf("accepted manifest is not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}

// FuzzChunkCodec hammers the chunk-stream decoder against a fixed manifest:
// arbitrary bytes must either be rejected or decode into chunk payloads
// whose cell counts match the manifest's geometry and which re-encode
// canonically.
func FuzzChunkCodec(f *testing.F) {
	frames := fuzzFrames()
	ref := frames[2] // the multi-chunk table
	m := BuildManifest(ref)
	f.Add([]byte{})
	for _, fr := range frames {
		if fr.NumChunks() == 0 {
			continue
		}
		enc, err := EncodeChunks(fr, []ChunkRange{{Start: 0, End: fr.NumChunks()}})
		if err != nil {
			panic(err)
		}
		f.Add(enc)
	}
	partial, err := EncodeChunks(ref, []ChunkRange{{Start: 1, End: 3}})
	if err != nil {
		panic(err)
	}
	// Mild corruptions aimed at the v5 layout — magic (4), fingerprint (8),
	// chunk count (8), then per chunk its index (8) and each column's cells:
	// a truncation, a chunk index bumped out of order, a categorical code
	// pushed out of the dictionary, and a v4 header on a v5 body.
	f.Add(partial)
	f.Add(partial[:len(partial)-2])
	reordered := append([]byte(nil), partial...)
	reordered[20] = 3 // first chunk claims index 3, the second is 2
	f.Add(reordered)
	badCode := append([]byte(nil), partial...)
	badCode[28+64*8] = 7 // chunk 1's first code; the dictionary has 3 values
	f.Add(badCode)
	f.Add(append([]byte("ZGC\x04"), partial[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks, err := DecodeChunks(data, m)
		if err != nil {
			return
		}
		for _, p := range chunks {
			start, end := m.ChunkBounds(p.Index)
			for i, cc := range p.Cols {
				if got := len(cc.Floats) + len(cc.Codes); got != end-start {
					t.Fatalf("accepted chunk %d col %d with %d cells, manifest geometry says %d",
						p.Index, i, got, end-start)
				}
			}
		}
		if again := EncodeChunkPayloads(m.Fingerprint, chunks); !bytes.Equal(again, data) {
			t.Fatalf("accepted chunk stream is not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}

// FuzzRequestCodec hammers the characterize/probe request decoder the same
// way: reject or round-trip, never panic.
func FuzzRequestCodec(f *testing.F) {
	f.Add([]byte{})
	sel := frame.NewBitmap(100)
	for i := 0; i < 100; i += 7 {
		sel.Set(i)
	}
	enc := EncodeRequest(Request{Fingerprint: 0xabc, Sel: sel})
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	empty := EncodeRequest(Request{Sel: frame.NewBitmap(0)})
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		if again := EncodeRequest(req); !bytes.Equal(again, data) {
			t.Fatalf("accepted request is not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}
