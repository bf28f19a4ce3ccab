package core

import (
	"encoding/json"
	"io"
	"math"
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

// reportJSON is the JSON form of a report.
type reportJSON struct {
	SQL          string  `json:"sql"`
	SelectedRows int     `json:"selectedRows"`
	TotalRows    int     `json:"totalRows"`
	PrepMillis   float64 `json:"prepMillis"`
	SearchMillis float64 `json:"searchMillis"`
	PostMillis   float64 `json:"postMillis"`
	// CacheHit reports reuse of the prepared dependency structure;
	// ReportCacheHit reports that the entire report came from the
	// report-level memo.
	CacheHit       bool       `json:"cacheHit"`
	ReportCacheHit bool       `json:"reportCacheHit"`
	Warnings       []string   `json:"warnings,omitempty"`
	Views          []viewJSON `json:"views"`
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
func WriteReportJSON(w io.Writer, sql string, rep *Report, plot func(columns []string) string) error {
	doc := reportJSON{
		SQL:            sql,
		SelectedRows:   rep.SelectedRows,
		TotalRows:      rep.TotalRows,
		PrepMillis:     float64(rep.Timings.Preparation.Microseconds()) / 1000,
		SearchMillis:   float64(rep.Timings.Search.Microseconds()) / 1000,
		PostMillis:     float64(rep.Timings.Post.Microseconds()) / 1000,
		CacheHit:       rep.CacheHit,
		ReportCacheHit: rep.ReportCacheHit,
		Warnings:       rep.Warnings,
		Approximate:    rep.Approximate,
	}
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
	return json.NewEncoder(w).Encode(doc)
}
