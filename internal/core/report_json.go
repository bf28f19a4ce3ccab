package core

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// viewJSON is the JSON form of a characteristic view.
type viewJSON struct {
	Columns     []string        `json:"columns"`
	Score       float64         `json:"score"`
	Tightness   float64         `json:"tightness"`
	PValue      *float64        `json:"pValue"` // null when untestable
	Significant bool            `json:"significant"`
	Explanation string          `json:"explanation"`
	Components  []componentJSON `json:"components"`
	// Plot is the ASCII chart of the view, present when requested.
	Plot string `json:"plot,omitempty"`
}

// componentJSON is the JSON form of a valid Zig-Component.
type componentJSON struct {
	Kind    string   `json:"kind"`
	Columns []string `json:"columns"`
	Raw     float64  `json:"raw"`
	Norm    float64  `json:"norm"`
	Inside  float64  `json:"inside"`
	Outside float64  `json:"outside"`
	PValue  *float64 `json:"pValue"`
	Detail  string   `json:"detail,omitempty"`
}

// reportJSON is the JSON form of a report: the head a request sets, then
// the tail that depends only on the report.
type reportJSON struct {
	reportHeadJSON
	reportTailJSON
}

// reportHeadJSON is the part of a report's document up to reportCacheHit.
type reportHeadJSON struct {
	SQL          string  `json:"sql"`
	SelectedRows int     `json:"selectedRows"`
	TotalRows    int     `json:"totalRows"`
	PrepMillis   float64 `json:"prepMillis"`
	SearchMillis float64 `json:"searchMillis"`
	PostMillis   float64 `json:"postMillis"`
	// CacheHit reports reuse of the prepared dependency structure;
	// ReportCacheHit reports that the entire report came from the
	// report-level memo.
	CacheHit       bool `json:"cacheHit"`
	ReportCacheHit bool `json:"reportCacheHit"`
}

// reportTailJSON is the part of a report's document after reportCacheHit.
// Both parts' fields are promoted into reportJSON, so the document is the
// head's encoding without its closing brace, a comma, and the tail's
// encoding without its opening brace.
type reportTailJSON struct {
	Warnings []string   `json:"warnings,omitempty"`
	Views    []viewJSON `json:"views"`
	// Approximate is present exactly when the report ran on a sample.
	Approximate *Approximate `json:"approximate,omitempty"`
}

// optFloat maps a non-finite value to JSON null.
func optFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// WriteReportJSON writes the JSON document of the report of query sql to w,
// followed by a newline. The document is what /api/characterize answers:
// camelCase keys, invalid components dropped, and untestable p-values as
// null, so every report encodes. plot, when non-nil, renders a view's chart
// from its columns; an empty chart is left out.
//
// A report-cache hit without plots is written from stored bytes: the first
// such hit on a cached report encodes the document's tail (warnings, views
// and the approximate block) once, and every hit then writes its own head
// (sql, row counts, timings and cache flags) followed by those bytes. The
// bytes are the ones encoding/json writes for the whole document.
func WriteReportJSON(w io.Writer, sql string, rep *Report, plot func(columns []string) string) error {
	if plot == nil && rep.ReportCacheHit && rep.stored != nil {
		if tail := rep.stored.tail(rep); tail != nil {
			head, err := json.Marshal(reportHead(sql, rep))
			if err != nil {
				return err
			}
			head[len(head)-1] = ','
			if _, err := w.Write(head); err != nil {
				return err
			}
			_, err = w.Write(tail)
			return err
		}
	}
	return json.NewEncoder(w).Encode(reportJSON{reportHead(sql, rep), reportTail(rep, plot)})
}

// reportHead builds the JSON form of the request-dependent part of rep's
// document.
func reportHead(sql string, rep *Report) reportHeadJSON {
	return reportHeadJSON{
		SQL:            sql,
		SelectedRows:   rep.SelectedRows,
		TotalRows:      rep.TotalRows,
		PrepMillis:     millis(rep.Timings.Preparation),
		SearchMillis:   millis(rep.Timings.Search),
		PostMillis:     millis(rep.Timings.Post),
		CacheHit:       rep.CacheHit,
		ReportCacheHit: rep.ReportCacheHit,
	}
}

// millis is a stage duration in milliseconds at microsecond resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// reportTail builds the JSON form of the report-dependent part of rep's
// document.
func reportTail(rep *Report, plot func(columns []string) string) reportTailJSON {
	doc := reportTailJSON{Warnings: rep.Warnings, Approximate: rep.Approximate}
	for _, v := range rep.Views {
		vj := viewJSON{
			Columns:     v.Columns,
			Score:       v.Score,
			Tightness:   v.Tightness,
			PValue:      optFloat(v.PValue),
			Significant: v.Significant,
			Explanation: v.Explanation,
		}
		if plot != nil {
			vj.Plot = plot(v.Columns)
		}
		for _, c := range v.Components {
			if !c.Valid() {
				continue
			}
			vj.Components = append(vj.Components, componentJSON{
				Kind:    c.Kind.String(),
				Columns: c.Columns,
				Raw:     c.Raw,
				Norm:    c.Norm,
				Inside:  c.Inside,
				Outside: c.Outside,
				PValue:  optFloat(c.Test.P),
				Detail:  c.Detail,
			})
		}
		doc.Views = append(doc.Views, vj)
	}
	return doc
}

// storedJSON holds a cached report's encoded tail. The report cache
// attaches one to every report it stores, and the shallow copies it serves
// share it. It stays empty until a hit is written: a report served once
// stores nothing.
type storedJSON struct {
	once  sync.Once
	bytes []byte // the tail without its opening brace, plus the newline
	// The cache entry that holds the report, charged for the bytes.
	cache *ReportCache
	key   reportKey
}

// tail returns the stored bytes, encoding them on first use; nil means the
// tail does not encode, and the caller takes the full encoder, which
// reports the error.
func (s *storedJSON) tail(rep *Report) []byte {
	s.once.Do(func() {
		raw, err := json.Marshal(reportTail(rep, nil))
		if err != nil {
			return
		}
		// Exact size: drop the opening brace, append the newline.
		b := make([]byte, len(raw))
		copy(b, raw[1:])
		b[len(b)-1] = '\n'
		s.bytes = b
		s.cache.c.Recharge(s.key, int64(len(b)), func(r *Report) bool { return r.stored == s })
	})
	return s.bytes
}
