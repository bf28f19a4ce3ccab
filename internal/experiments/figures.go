package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/effect"
	"repro/internal/frame"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/synth"
)

// CrimeScenario bundles the paper's running example: the US Crime twin with
// the high-crime selection.
type CrimeScenario struct {
	Frame   *frame.Frame
	Mask    *frame.Bitmap
	SQL     string
	Exclude []string
}

// NewCrimeScenario builds the running example: communities above the 90th
// percentile of violent crime, with the crime outcome columns excluded from
// the views (the query already constrains them).
func NewCrimeScenario(seed uint64) (*CrimeScenario, error) {
	f := synth.USCrime(seed)
	q90, err := synth.QuantileOf(f, "crime_violent_rate", 0.9)
	if err != nil {
		return nil, err
	}
	cat := db.NewCatalog()
	if err := cat.Register(f); err != nil {
		return nil, err
	}
	sql := fmt.Sprintf("SELECT * FROM uscrime WHERE crime_violent_rate >= %g", q90)
	res, err := cat.Query(sql)
	if err != nil {
		return nil, err
	}
	var exclude []string
	for _, name := range f.ColumnNames() {
		if strings.HasPrefix(name, "crime_") || name == "arson_count" || name == "gang_incidents" || name == "pct_boarded_windows" {
			exclude = append(exclude, name)
		}
	}
	return &CrimeScenario{Frame: f, Mask: res.Mask, SQL: sql, Exclude: exclude}, nil
}

// Figure1 regenerates paper Figure 1: the characteristic views of the
// high-crime selection. Each row reports one view with its score,
// tightness, confidence and the directions of its mean shifts.
func Figure1(seed uint64) (*Table, error) {
	sc, err := NewCrimeScenario(seed)
	if err != nil {
		return nil, err
	}
	cfg := engineConfig()
	cfg.MaxViews = 8
	engine, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := engine.CharacterizeOpts(sc.Frame, sc.Mask, core.Options{ExcludeColumns: sc.Exclude})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "f1",
		Title:  "Characteristic views of the high-crime selection (paper Figure 1)",
		Header: []string{"rank", "view", "score", "tightness", "p-value", "selection is"},
	}
	for i, v := range rep.Views {
		t.AddRow(
			fmt.Sprint(i+1),
			strings.Join(v.Columns, " × "),
			fmt.Sprintf("%.3f", v.Score),
			fmt.Sprintf("%.2f", v.Tightness),
			fmt.Sprintf("%.2g", v.PValue),
			directionSummary(v),
		)
	}
	t.AddNote("paper claims: pop/density ↑ with low variance; education/salary ↓; rent/ownership ↓; young/monoparental ↑")
	t.AddNote("%d/%d rows selected by %s", rep.SelectedRows, rep.TotalRows, sc.SQL)
	return t, nil
}

// directionSummary compresses a view's mean components into "col ↑/↓" tags.
func directionSummary(v core.View) string {
	var parts []string
	for _, c := range v.Components {
		if (c.Kind == effect.DiffMeans || c.Kind == effect.DiffLocationsRobust) && c.Valid() {
			arrow := "↑"
			if c.Raw < 0 {
				arrow = "↓"
			}
			parts = append(parts, c.Columns[0]+arrow)
		}
		if c.Kind == effect.DiffStdDevs && c.Valid() && c.Norm >= 0.4 {
			tag := "σ↑"
			if c.Raw < 0 {
				tag = "σ↓"
			}
			parts = append(parts, c.Columns[0]+tag)
		}
	}
	return strings.Join(parts, " ")
}

// Figure2 verifies the problem setting of paper Figure 2: every column
// splits into a selection part Cᴵ and complement Cᴼ with no loss and no
// overlap, NULLs excluded from both.
func Figure2(seed uint64) (*Table, error) {
	sc, err := NewCrimeScenario(seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "f2",
		Title:  "Column split invariants (paper Figure 2)",
		Header: []string{"column", "kind", "|C_I|", "|C_O|", "nulls", "|C_I|+|C_O|+nulls", "rows"},
	}
	cols := []string{"population", "pct_college_educ", "avg_rent", "pct_monoparental", "region", "crime_violent_rate"}
	for _, name := range cols {
		c, ok := sc.Frame.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("missing column %q", name)
		}
		var nIn, nOut int
		switch c.Kind() {
		case frame.Numeric:
			in, out, err := sc.Frame.SplitNumeric(name, sc.Mask)
			if err != nil {
				return nil, err
			}
			nIn, nOut = len(in), len(out)
		case frame.Categorical:
			in, out, _, err := sc.Frame.SplitCodes(name, sc.Mask)
			if err != nil {
				return nil, err
			}
			nIn, nOut = len(in), len(out)
		}
		nulls := c.NullCount()
		t.AddRow(name, c.Kind().String(),
			fmt.Sprint(nIn), fmt.Sprint(nOut), fmt.Sprint(nulls),
			fmt.Sprint(nIn+nOut+nulls), fmt.Sprint(sc.Frame.NumRows()))
	}
	t.AddNote("invariant: |C_I| + |C_O| + nulls = rows for every column")
	return t, nil
}

// Figure3 regenerates paper Figure 3: the Zig-Components of the
// population × pop_density view — difference of means, of standard
// deviations, and of correlation coefficients, with normalization and
// significance.
func Figure3(seed uint64) (*Table, error) {
	sc, err := NewCrimeScenario(seed)
	if err != nil {
		return nil, err
	}
	inP, outP, err := sc.Frame.SplitNumeric("population", sc.Mask)
	if err != nil {
		return nil, err
	}
	inD, outD, err := sc.Frame.SplitNumeric("pop_density", sc.Mask)
	if err != nil {
		return nil, err
	}
	sInP, sOutP := stats.Summarize(inP), stats.Summarize(outP)
	sInD, sOutD := stats.Summarize(inD), stats.Summarize(outD)
	comps := []effect.Component{
		effect.Means("population", sInP, sOutP),
		effect.Means("pop_density", sInD, sOutD),
		effect.StdDevs("population", sInP, sOutP),
		effect.StdDevs("pop_density", sInD, sOutD),
	}
	// The 2D component needs row-aligned values.
	pCol, _ := sc.Frame.Lookup("population")
	dCol, _ := sc.Frame.Lookup("pop_density")
	var inA, inB, outA, outB []float64
	for i := 0; i < sc.Frame.NumRows(); i++ {
		if pCol.IsNull(i) || dCol.IsNull(i) {
			continue
		}
		if sc.Mask.Get(i) {
			inA = append(inA, pCol.Float(i))
			inB = append(inB, dCol.Float(i))
		} else {
			outA = append(outA, pCol.Float(i))
			outB = append(outB, dCol.Float(i))
		}
	}
	comps = append(comps, effect.Correlations("population", "pop_density",
		stats.Pearson(inA, inB), len(inA), stats.Pearson(outA, outB), len(outA)))

	t := &Table{
		ID:     "f3",
		Title:  "Zig-Components on population × pop_density (paper Figure 3)",
		Header: []string{"component", "columns", "inside", "outside", "raw effect", "normalized", "p-value"},
	}
	for _, c := range comps {
		t.AddRow(
			c.Kind.String(),
			strings.Join(c.Columns, ","),
			fmt.Sprintf("%.4g", c.Inside),
			fmt.Sprintf("%.4g", c.Outside),
			fmt.Sprintf("%.3f", c.Raw),
			fmt.Sprintf("%.3f", c.Norm),
			fmt.Sprintf("%.2g", c.Test.P),
		)
	}
	t.AddNote("μ difference uses Hedges' g; σ difference the log variance ratio; r difference the Fisher z gap")
	t.AddNote("inside mean population %.0f vs outside %.0f", stats.Mean(inP), stats.Mean(outP))
	return t, nil
}

// Figure4 regenerates paper Figure 4: the three pipeline stages and their
// cost on each demo dataset, cold (first query) and warm (dependency
// structure cached).
func Figure4(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "f4",
		Title:  "Pipeline stage breakdown (paper Figure 4)",
		Header: []string{"dataset", "rows", "cols", "state", "prep(ms)", "search(ms)", "post(ms)", "total(ms)"},
	}
	datasets := []struct {
		name string
		f    *frame.Frame
		col  string
	}{
		{"boxoffice", synth.BoxOffice(seed), "gross_musd"},
		{"uscrime", synth.USCrime(seed), "crime_violent_rate"},
		{"innovation", synth.Innovation(seed), "patents_per_capita"},
	}
	engine, err := core.New(engineConfig())
	if err != nil {
		return nil, err
	}
	for _, d := range datasets {
		q, err := synth.QuantileOf(d.f, d.col, 0.9)
		if err != nil {
			return nil, err
		}
		sel, err := thresholdMask(d.f, d.col, q)
		if err != nil {
			return nil, err
		}
		for _, state := range []string{"cold", "warm"} {
			if state == "cold" {
				engine.InvalidateCache()
			}
			// Bypass the report memo: "warm" here means the prepared
			// dependency structure is cached while the per-query stages
			// still run, which is what the figure measures.
			rep, err := engine.CharacterizeOpts(d.f, sel, core.Options{SkipReportCache: true})
			if err != nil {
				return nil, err
			}
			t.AddRow(d.name,
				fmt.Sprint(d.f.NumRows()), fmt.Sprint(d.f.NumCols()), state,
				ms(rep.Timings.Preparation), ms(rep.Timings.Search), ms(rep.Timings.Post),
				ms(rep.Timings.Total()))
		}
	}
	t.AddNote("paper: preparation dominates; sharing statistics across queries removes most of it")
	return t, nil
}

// thresholdMask selects rows where the named numeric column is ≥ threshold.
func thresholdMask(f *frame.Frame, col string, threshold float64) (*frame.Bitmap, error) {
	c, ok := f.Lookup(col)
	if !ok {
		return nil, fmt.Errorf("missing column %q", col)
	}
	mask := frame.NewBitmap(f.NumRows())
	for i := 0; i < f.NumRows(); i++ {
		if !c.IsNull(i) && c.Float(i) >= threshold {
			mask.Set(i)
		}
	}
	return mask, nil
}

func ms(d interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.1f", d.Seconds()*1000)
}

// Figure5 exercises the demo UI of paper Figure 5 end-to-end over HTTP:
// load the page, list the tables, characterize the default query, and
// report what the interface would display.
func Figure5(seed uint64) (*Table, error) {
	cat := db.NewCatalog()
	if err := cat.Register(synth.USCrime(seed)); err != nil {
		return nil, err
	}
	router, err := shard.New(engineConfig())
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(server.New(cat, router, nil))
	defer srv.Close()

	t := &Table{
		ID:     "f5",
		Title:  "Demo interface round-trip (paper Figure 5)",
		Header: []string{"step", "endpoint", "status", "payload"},
	}

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	resp.Body.Close()
	t.AddRow("load UI", "GET /", fmt.Sprint(resp.StatusCode), fmt.Sprintf("%d bytes of HTML", buf.Len()))

	resp, err = http.Get(srv.URL + "/api/tables")
	if err != nil {
		return nil, err
	}
	var tables []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		return nil, err
	}
	resp.Body.Close()
	t.AddRow("list tables", "GET /api/tables", fmt.Sprint(resp.StatusCode), fmt.Sprintf("%d table(s)", len(tables)))

	f := synth.USCrime(seed)
	q90, err := synth.QuantileOf(f, "crime_violent_rate", 0.9)
	if err != nil {
		return nil, err
	}
	body, _ := json.Marshal(map[string]any{
		"sql":              fmt.Sprintf("SELECT * FROM uscrime WHERE crime_violent_rate >= %g", q90),
		"excludePredicate": true,
	})
	resp, err = http.Post(srv.URL+"/api/characterize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var charResp struct {
		Views []struct {
			Columns     []string `json:"columns"`
			Explanation string   `json:"explanation"`
		} `json:"views"`
		SelectedRows int `json:"selectedRows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&charResp); err != nil {
		return nil, err
	}
	resp.Body.Close()
	t.AddRow("characterize", "POST /api/characterize", fmt.Sprint(resp.StatusCode),
		fmt.Sprintf("%d views for %d selected rows", len(charResp.Views), charResp.SelectedRows))
	for i, v := range charResp.Views {
		if i >= 3 {
			break
		}
		t.AddNote("view %d: %s — %s", i+1, strings.Join(v.Columns, " × "), v.Explanation)
	}
	return t, nil
}
