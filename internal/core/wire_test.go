package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/effect"
	"repro/internal/frame"
	"repro/internal/hypo"
	"repro/internal/randx"
)

// testEngine builds a sequential engine plus a small table (6 numeric
// columns, 90 rows) with a planted shift so characterizations are fast and
// produce non-trivial views.
func testEngine(t *testing.T, cfg Config) (*Engine, *frame.Frame, *frame.Bitmap) {
	t.Helper()
	cfg.Parallelism = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 90
	rng := randx.New(11)
	sel := frame.NewBitmap(rows)
	for i := 0; i < rows/3; i++ {
		sel.Set(i)
	}
	cols := make([]*frame.Column, 6)
	for c := range cols {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			if sel.Get(i) && c < 3 {
				vals[i] += 2
			}
		}
		cols[c] = frame.NewNumericColumn(fmt.Sprintf("c%d", c), vals)
	}
	return e, frame.MustNew("wire", cols), sel
}

// wireFixture is a report exercising every field the codec carries: NaN and
// ±Inf floats (which JSON cannot represent), empty and non-ASCII strings,
// nil and populated slices, and both cache flags.
func wireFixture() *Report {
	return &Report{
		SelectedRows: 42,
		TotalRows:    1994,
		Timings:      Timings{Preparation: 3 * time.Millisecond, Search: 5 * time.Millisecond, Post: time.Microsecond},
		Warnings:     []string{"column \"naïve\" skipped", ""},
		CacheHit:     true,
		Views: []View{
			{
				Columns:     []string{"a", "b"},
				Score:       1.25,
				Tightness:   0.5,
				PValue:      math.NaN(),
				Significant: false,
				Explanation: "inside ≫ outside",
				Components: []effect.Component{
					{
						Kind:    effect.DiffMeans,
						Columns: []string{"a"},
						Raw:     math.Inf(1),
						Norm:    1,
						Inside:  math.Copysign(0, -1),
						Outside: math.Inf(-1),
						Test:    hypo.Result{Stat: 2.5, DF: 17, DF2: math.NaN(), P: 0.01},
						Detail:  "category «x»",
					},
					{Kind: effect.DiffStdDevs, Raw: math.NaN(), Norm: math.NaN(), Test: hypo.Result{P: math.NaN()}},
				},
			},
			{Columns: []string{"c"}, PValue: 0.2},
		},
	}
}

// approxWireFixture is wireFixture with approximate provenance attached —
// the payload that must travel as a version-4 partial-report frame.
func approxWireFixture() *Report {
	rep := wireFixture()
	rep.Approximate = &Approximate{
		SampleRows:  100,
		CapRows:     512,
		Seed:        0xa5a5_5a5a_0123_4567,
		InsideRows:  33,
		OutsideRows: 67,
		SEInflation: 4.46654,
	}
	return rep
}

// TestReportCodecRoundTrip pins decode(encode(r)) == r at the byte level:
// re-encoding the decoded report reproduces the original bytes exactly, and
// the NaN/Inf fields survive (reflect.DeepEqual cannot check NaN equality,
// so the canonical-bytes property is the contract).
func TestReportCodecRoundTrip(t *testing.T) {
	for name, rep := range map[string]*Report{
		"full":   wireFixture(),
		"empty":  {},
		"approx": approxWireFixture(),
	} {
		enc := EncodeReport(rep)
		if cap(enc) != len(enc) {
			t.Errorf("%s: encoder sized its buffer %d for %d bytes", name, cap(enc), len(enc))
		}
		dec, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re := EncodeReport(dec); !bytes.Equal(re, enc) {
			t.Errorf("%s: re-encoded report differs from original encoding", name)
		}
		if name != "full" {
			continue
		}
		if !math.IsNaN(dec.Views[0].PValue) || !math.IsInf(dec.Views[0].Components[0].Raw, 1) {
			t.Error("NaN/Inf floats did not survive the round trip")
		}
		if math.Signbit(dec.Views[0].Components[0].Inside) != true {
			t.Error("negative zero did not survive the round trip")
		}
		if dec.Views[0].Explanation != "inside ≫ outside" || dec.Warnings[0] != "column \"naïve\" skipped" {
			t.Error("non-ASCII strings did not survive the round trip")
		}
		if dec.Timings != wireFixture().Timings || !dec.CacheHit || dec.ReportCacheHit {
			t.Errorf("scalar fields diverged: %+v", dec)
		}
	}
}

// TestReportCodecEngineOutput round-trips a real characterization, the
// payload the remote layer actually ships.
func TestReportCodecEngineOutput(t *testing.T) {
	eng, f, sel := testEngine(t, DefaultConfig())
	rep, err := eng.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeReport(rep)
	if cap(enc) != len(enc) {
		t.Errorf("encoder sized its buffer %d for %d bytes", cap(enc), len(enc))
	}
	dec, err := DecodeReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeReport(dec), enc) {
		t.Error("engine report did not survive the round trip")
	}
	if len(dec.Views) != len(rep.Views) || dec.SelectedRows != rep.SelectedRows {
		t.Errorf("decoded %d views / %d rows, want %d / %d", len(dec.Views), dec.SelectedRows, len(rep.Views), rep.SelectedRows)
	}
}

// TestPartialReportFrame pins the framing contract: exact reports are
// framed as version 3, approximate reports as version 4 with the
// provenance block intact ahead of the same body, and the version byte is
// the on-wire approximate flag.
func TestPartialReportFrame(t *testing.T) {
	exact := EncodeReport(wireFixture())
	if !bytes.Equal(exact[:4], []byte("ZGR\x03")) {
		t.Fatalf("exact report framed as %q, want version 3", exact[:4])
	}

	approx := EncodeReport(approxWireFixture())
	if !bytes.Equal(approx[:4], []byte("ZGR\x04")) {
		t.Fatalf("approximate report framed as %q, want version 4", approx[:4])
	}
	// Past the approx block, the body is the version-3 body unchanged.
	if !bytes.Equal(approx[4+6*8:], exact[4:]) {
		t.Error("version-4 body diverged from the version-3 layout")
	}

	dec, err := DecodeReport(approx)
	if err != nil {
		t.Fatal(err)
	}
	want := approxWireFixture().Approximate
	if dec.Approximate == nil || *dec.Approximate != *want {
		t.Errorf("approximate block = %+v, want %+v", dec.Approximate, want)
	}
	// A version-3 payload decodes with no approximate block.
	decExact, err := DecodeReport(exact)
	if err != nil {
		t.Fatal(err)
	}
	if decExact.Approximate != nil {
		t.Error("version-3 payload decoded with an approximate block")
	}
}

// TestReportCodecRejectsOldVersions pins that the retired frames — version
// 1 (exact) and version 2 (approximate), which carried a sampled-rows slot —
// fail loudly as unsupported rather than misparsing.
func TestReportCodecRejectsOldVersions(t *testing.T) {
	enc := EncodeReport(wireFixture())
	encApprox := EncodeReport(approxWireFixture())
	for name, data := range map[string][]byte{
		"v1": append([]byte("ZGR\x01"), enc[4:]...),
		"v2": append([]byte("ZGR\x02"), encApprox[4:]...),
	} {
		_, err := DecodeReport(data)
		if err == nil || !strings.Contains(err.Error(), "unsupported wire version") {
			t.Errorf("%s frame: err = %v, want unsupported wire version", name, err)
		}
	}
}

// TestReportCodecRejectsCorruption covers the strict-decode error paths for
// both frame versions.
func TestReportCodecRejectsCorruption(t *testing.T) {
	enc := EncodeReport(wireFixture())
	encApprox := EncodeReport(approxWireFixture())
	cases := map[string][]byte{
		"empty":           {},
		"short header":    enc[:3],
		"bad magic":       append([]byte("XXX\x03"), enc[4:]...),
		"future version":  append([]byte("ZGR\x63"), enc[4:]...),
		"version 5":       append([]byte("ZGR\x05"), encApprox[4:]...),
		"truncated":       enc[:len(enc)/2],
		"trailing bytes":  append(append([]byte(nil), enc...), 0),
		"oversized count": append(append([]byte(nil), enc[:4]...), bytes.Repeat([]byte{0xff}, 64)...),
		// Version-4 frames get the same strictness: a truncation inside the
		// approx block, mid-body truncation, and trailing garbage all fail.
		"v4 short approx block": encApprox[:4+3*8],
		"v4 truncated":          encApprox[:len(encApprox)/2],
		"v4 trailing bytes":     append(append([]byte(nil), encApprox...), 0),
		// Cross-version confusion is a decode error, not a misparse: a
		// version-3 body under a version-4 header reads 48 bytes of approx
		// block that are not there, and vice versa leaves 48 bytes trailing.
		"v3 body under v4 header": append([]byte("ZGR\x04"), enc[4:]...),
		"v4 body under v3 header": append([]byte("ZGR\x03"), encApprox[4:]...),
	}
	for name, data := range cases {
		if _, err := DecodeReport(data); err == nil {
			t.Errorf("%s: decode accepted corrupted payload", name)
		}
	}
	// A corrupted bool byte (anything but 0/1) is rejected, not coerced.
	for name, enc := range map[string][]byte{"v3": enc, "v4": encApprox} {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] = 7
		if _, err := DecodeReport(bad); err == nil {
			t.Errorf("%s: invalid bool byte accepted", name)
		}
	}
}

// TestCachedReportFingerprint pins the by-fingerprint probe surface: a probe
// with the table's fingerprint hits after the table was characterized (no
// frame in hand), counts as a served request, and misses for foreign
// fingerprints, mismatched options, and SkipReportCache.
func TestCachedReportFingerprint(t *testing.T) {
	eng, f, sel := testEngine(t, DefaultConfig())
	if _, ok := eng.CachedReportFingerprint(f.Fingerprint(), sel, Options{}); ok {
		t.Fatal("probe hit before anything was cached")
	}
	if _, err := eng.Characterize(f, sel); err != nil {
		t.Fatal(err)
	}
	rep, ok := eng.CachedReportFingerprint(f.Fingerprint(), sel, Options{})
	if !ok || !rep.ReportCacheHit {
		t.Fatal("probe missed the cached report")
	}
	if _, ok := eng.CachedReportFingerprint(f.Fingerprint()+1, sel, Options{}); ok {
		t.Error("probe hit a foreign fingerprint")
	}
	if _, ok := eng.CachedReportFingerprint(f.Fingerprint(), sel, Options{ExcludeColumns: []string{"x"}}); ok {
		t.Error("probe ignored the options hash")
	}
	if _, ok := eng.CachedReportFingerprint(f.Fingerprint(), sel, Options{SkipReportCache: true}); ok {
		t.Error("probe ignored SkipReportCache")
	}
	if _, ok := eng.CachedReportFingerprint(f.Fingerprint(), nil, Options{}); ok {
		t.Error("probe accepted a nil selection")
	}
	snap := eng.CacheStats().Reports
	if snap.Hits != 1 || snap.Misses != 1 {
		t.Errorf("reports tier = %+v, want exactly the probe hit and the cold miss", snap)
	}
}

// TestReportCacheFingerprintTier pins the front-tier surface of
// ReportCache: StoreFingerprint files a report under exactly the key an
// engine built from the same configuration reads (ConfigHash applies the
// engine's extended-weight defaults), counts no request, and honours
// SkipReportCache and nil selections; CachedFingerprint counts its hits
// only.
func TestReportCacheFingerprintTier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Extended = true
	computed, f, sel := testEngine(t, cfg)
	rep, err := computed.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReportCache(0, 0)
	h := ConfigHash(cfg)
	if _, ok := rc.CachedFingerprint(f.Fingerprint(), sel, h, Options{}); ok {
		t.Fatal("empty cache answered")
	}
	rc.StoreFingerprint(f.Fingerprint(), sel, h, Options{SkipReportCache: true}, rep)
	rc.StoreFingerprint(f.Fingerprint(), nil, h, Options{}, rep)
	if rc.Len() != 0 {
		t.Fatal("StoreFingerprint stored under SkipReportCache or a nil selection")
	}
	rc.StoreFingerprint(f.Fingerprint(), sel, h, Options{}, rep)
	if s := rc.Snapshot(); s.Hits != 0 || s.Misses != 0 || s.Entries != 1 {
		t.Fatalf("after StoreFingerprint: %+v, want one entry and no counted request", s)
	}
	got, ok := rc.CachedFingerprint(f.Fingerprint(), sel, h, Options{})
	if !ok || !got.ReportCacheHit || got.Timings != (Timings{}) {
		t.Fatalf("CachedFingerprint after store: ok=%v, want a flagged hit with zero timings", ok)
	}
	if _, ok := rc.CachedFingerprint(f.Fingerprint(), sel, h, Options{SkipReportCache: true}); ok {
		t.Error("CachedFingerprint ignored SkipReportCache")
	}
	// An engine sharing the cache finds the stored report under its own key.
	eng, err := NewShared(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := eng.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.ReportCacheHit {
		t.Error("engine missed the report stored under ConfigHash")
	}
	if s := rc.Snapshot(); s.Hits != 2 || s.Misses != 0 {
		t.Errorf("reports tier = %+v, want the two served hits only", s)
	}
}
