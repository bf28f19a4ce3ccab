package core

import (
	"fmt"
	"time"

	"repro/internal/effect"
	"repro/internal/hypo"
	"repro/internal/wire"
)

// This file is the report wire codec: a versioned binary serialization of
// core.Report for the multi-process serving layer (internal/remote). It is
// built on the shared primitives of internal/wire, and the contract is
// strong: DecodeReport(EncodeReport(r)) reproduces r exactly, including NaN
// p-values and NaN payload bits that JSON cannot carry, so a report served
// by a remote worker is byte-identical (re-encoded) to one computed in
// process. TestRemoteDeterminism and the ziggyd golden suite lean on this.
//
// Exact reports use version 3. After the 4-byte magic "ZGR\x03":
//
//	report  := selectedRows totalRows timings warnings views flags
//	timings := prepNanos searchNanos postNanos          (3 × u64)
//	warnings:= count {string}*
//	views   := count {view}*
//	view    := columns score tightness pValue significant explanation comps
//	comps   := count {comp}*
//	comp    := kind columns raw norm inside outside stat df df2 p detail
//
// Version 4 is the partial-report frame for sample-based approximate
// answers: after the magic "ZGR\x04" comes an approx provenance block, then
// the version-3 body unchanged:
//
//	approx  := sampleRows capRows seed insideRows outsideRows seInflation
//
// Only reports carrying an Approximate block use version 4, so the frame
// version doubles as the on-the-wire approximate flag. Versions 1 and 2
// carried a sampled-rows slot that duplicated the provenance block; they
// are not read back (report bytes are never stored), so a worker from an
// older build fails loudly with "unsupported wire version".
//
// Decoding is strict: bad magic, an unknown version, truncation, oversized
// counts and trailing bytes are all errors, never a partially decoded
// report.

// Frame versions of exact and approximate reports. Both are bumped
// together whenever the body layout changes.
const (
	reportVersionExact  = 3
	reportVersionApprox = 4
)

const decodingReport = "core: decoding report"

// EncodeReport serializes a report in the versioned wire format. The
// encoding is canonical: equal reports encode to equal bytes, so encoded
// reports can be byte-compared (the determinism suites do). Exact reports
// encode as version 3; reports with an Approximate block encode as the
// version-4 partial-report frame.
func EncodeReport(rep *Report) []byte {
	w := wire.Buf{B: append(make([]byte, 0, encodedReportSize(rep)), 'Z', 'G', 'R', reportVersionExact)}
	if a := rep.Approximate; a != nil {
		w.B[3] = reportVersionApprox
		w.I64(int64(a.SampleRows))
		w.I64(int64(a.CapRows))
		w.U64(a.Seed)
		w.I64(int64(a.InsideRows))
		w.I64(int64(a.OutsideRows))
		w.F64(a.SEInflation)
	}
	w.I64(int64(rep.SelectedRows))
	w.I64(int64(rep.TotalRows))
	w.I64(int64(rep.Timings.Preparation))
	w.I64(int64(rep.Timings.Search))
	w.I64(int64(rep.Timings.Post))
	w.Strs(rep.Warnings)
	w.U64(uint64(len(rep.Views)))
	for i := range rep.Views {
		v := &rep.Views[i]
		w.Strs(v.Columns)
		w.F64(v.Score)
		w.F64(v.Tightness)
		w.F64(v.PValue)
		w.Bool(v.Significant)
		w.Str(v.Explanation)
		w.U64(uint64(len(v.Components)))
		for _, c := range v.Components {
			w.I64(int64(c.Kind))
			w.Strs(c.Columns)
			w.F64(c.Raw)
			w.F64(c.Norm)
			w.F64(c.Inside)
			w.F64(c.Outside)
			w.F64(c.Test.Stat)
			w.F64(c.Test.DF)
			w.F64(c.Test.DF2)
			w.F64(c.Test.P)
			w.Str(c.Detail)
		}
	}
	w.Bool(rep.CacheHit)
	w.Bool(rep.ReportCacheHit)
	return w.B
}

// encodedReportSize returns the exact length of EncodeReport(rep), so the
// encoder allocates its buffer once.
func encodedReportSize(rep *Report) int {
	strs := func(ss []string) int {
		n := 8
		for _, s := range ss {
			n += 8 + len(s)
		}
		return n
	}
	n := 4 + 5*8 + strs(rep.Warnings) + 8 + 2
	if rep.Approximate != nil {
		n += 6 * 8
	}
	for i := range rep.Views {
		v := &rep.Views[i]
		n += strs(v.Columns) + 3*8 + 1 + 8 + len(v.Explanation) + 8
		for _, c := range v.Components {
			n += 8 + strs(c.Columns) + 8*8 + 8 + len(c.Detail)
		}
	}
	return n
}

// DecodeReport parses a wire-format report, accepting exactly the
// version-3 exact layout and the version-4 partial-report frame. It
// rejects bad magic, any other version, truncated or oversized payloads,
// and trailing garbage.
func DecodeReport(data []byte) (*Report, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%s: %d bytes is shorter than the header", decodingReport, len(data))
	}
	if data[0] != 'Z' || data[1] != 'G' || data[2] != 'R' {
		return nil, fmt.Errorf("%s: bad magic %q", decodingReport, data[:3])
	}
	version := data[3]
	if version != reportVersionExact && version != reportVersionApprox {
		return nil, fmt.Errorf("%s: unsupported wire version %d (this build speaks %d and %d)",
			decodingReport, version, reportVersionExact, reportVersionApprox)
	}
	r := &wire.Reader{What: decodingReport, B: data, Off: 4}
	rep := &Report{}
	if version == reportVersionApprox {
		rep.Approximate = &Approximate{
			SampleRows:  int(r.I64()),
			CapRows:     int(r.I64()),
			Seed:        r.U64(),
			InsideRows:  int(r.I64()),
			OutsideRows: int(r.I64()),
			SEInflation: r.F64(),
		}
	}
	rep.SelectedRows = int(r.I64())
	rep.TotalRows = int(r.I64())
	rep.Timings = Timings{
		Preparation: time.Duration(r.I64()),
		Search:      time.Duration(r.I64()),
		Post:        time.Duration(r.I64()),
	}
	rep.Warnings = r.Strs()
	// A view is at least 8 fixed u64-sized fields; 8 bytes is a safe floor.
	nViews := r.Count(8)
	if nViews > 0 {
		rep.Views = make([]View, nViews)
	}
	for i := 0; i < nViews && r.Err == nil; i++ {
		v := &rep.Views[i]
		v.Columns = r.Strs()
		v.Score = r.F64()
		v.Tightness = r.F64()
		v.PValue = r.F64()
		v.Significant = r.Bool()
		v.Explanation = r.Str()
		nComps := r.Count(8)
		if nComps > 0 {
			v.Components = make([]effect.Component, nComps)
		}
		for j := 0; j < nComps && r.Err == nil; j++ {
			c := &v.Components[j]
			c.Kind = effect.Kind(r.I64())
			c.Columns = r.Strs()
			c.Raw = r.F64()
			c.Norm = r.F64()
			c.Inside = r.F64()
			c.Outside = r.F64()
			c.Test = hypo.Result{Stat: r.F64(), DF: r.F64(), DF2: r.F64(), P: r.F64()}
			c.Detail = r.Str()
		}
	}
	rep.CacheHit = r.Bool()
	rep.ReportCacheHit = r.Bool()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rep, nil
}
