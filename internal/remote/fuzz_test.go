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

// FuzzChunkCodec hammers the chunk-stream decoder and the worker's
// reassembly behind it. The seed tables stand in for the worker's store: a
// stream that decodes, names a resident base whose chains match its prefix
// (what the worker checks before assembling), and reassembles must
// reproduce its manifest's fingerprint and re-encode canonically;
// everything else must be an error, never a panic.
func FuzzChunkCodec(f *testing.F) {
	frames := fuzzFrames()
	store := make(map[uint64]*frame.Frame, len(frames))
	for _, fr := range frames {
		store[fr.Fingerprint()] = fr
	}
	stream := func(fr *frame.Frame, base uint64, prefix int) []byte {
		return EncodeStream(fr, EncodeManifest(BuildManifest(fr)), base, prefix)
	}
	f.Add([]byte{})
	for _, fr := range frames {
		f.Add(stream(fr, 0, 0))
	}
	// The appended table (200 rows) over its resident 128-row base: a
	// two-chunk prefix and a streamed tail.
	exact, appended := frames[3], frames[4]
	partial := stream(appended, exact.Fingerprint(), 2)
	// Mild corruptions aimed at the v6 layout — magic (4), manifest length
	// (8) and bytes, base (8), prefix (8), then each column's cells: a
	// truncation, a prefix past the table's full chunks, a categorical code
	// pushed out of its dictionary, and a v5 header on a v6 body.
	f.Add(partial)
	f.Add(partial[:len(partial)-2])
	tail := len(partial) - 8*(appended.NumRows()-128)
	longPrefix := append([]byte(nil), partial...)
	longPrefix[tail-8] = 9
	f.Add(longPrefix)
	chunked := stream(frames[2], 0, 0)
	badCode := append([]byte(nil), chunked...)
	badCode[len(badCode)-4*frames[2].NumRows()] = 7 // the dictionary has 3 values
	f.Add(badCode)
	f.Add(append([]byte("ZGC\x05"), partial[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStream(data)
		if err != nil {
			return // rejection is fine; panics and false accepts are not
		}
		var base *frame.Frame
		if s.Prefix > 0 {
			var ok bool
			if base, ok = store[s.Base]; !ok || matchPrefix(s.Manifest, base) < s.Prefix {
				return
			}
		}
		got, err := AssembleFrame(s, base)
		if err != nil {
			return
		}
		if got.Fingerprint() != s.Manifest.Fingerprint {
			t.Fatalf("stream reassembled to %#x, its manifest says %#x", got.Fingerprint(), s.Manifest.Fingerprint)
		}
		if again := EncodeStream(got, EncodeManifest(s.Manifest), s.Base, s.Prefix); !bytes.Equal(again, data) {
			t.Fatalf("accepted chunk stream is not canonical:\n in: %x\nout: %x", data, again)
		}
	})
}

// FuzzRequestCodec hammers the characterize request decoder the same
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
