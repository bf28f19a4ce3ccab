package core

import (
	"bytes"
	"testing"
)

// FuzzReportCodec fuzzes the report wire format from the decode side: any
// byte string either fails to decode or decodes to a report whose
// re-encoding is stable — decode(encode(decode(data))) reproduces the same
// bytes. Combined with the canonical-encoding property this is the full
// decode∘encode round-trip: every decodable payload IS encode of its decoded
// report. The seed corpus covers the empty report, the kitchen-sink fixture
// (NaN/Inf floats, non-ASCII strings) and a real engine output shape.
func FuzzReportCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeReport(&Report{}))
	f.Add(EncodeReport(wireFixture()))
	f.Add(EncodeReport(approxWireFixture()))
	f.Add(EncodeReport(&Report{Approximate: &Approximate{SampleRows: 1, SEInflation: 1}}))
	// Mild corruptions of a valid payload steer the fuzzer toward deep
	// field boundaries instead of dying on the magic check.
	full := EncodeReport(wireFixture())
	f.Add(full[:len(full)-1])
	truncated := append([]byte(nil), full[:40]...)
	f.Add(truncated)
	// Version-4 seeds: a truncation inside the approx block and a header
	// swapped onto the version-3 body steer the fuzzer at the frame switch.
	approx := EncodeReport(approxWireFixture())
	f.Add(approx[:len(approx)-1])
	f.Add(append([]byte(nil), approx[:20]...))
	f.Add(append([]byte("ZGR\x04"), full[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		enc := EncodeReport(rep)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decodable payload is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(enc))
		}
		rep2, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("re-encoded report failed to decode: %v", err)
		}
		if !bytes.Equal(EncodeReport(rep2), enc) {
			t.Fatal("second round trip diverged")
		}
	})
}
