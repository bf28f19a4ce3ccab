package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/depend"
	"repro/internal/effect"
	"repro/internal/frame"
	"repro/internal/hypo"
	"repro/internal/synth"
)

// storedSQLs are query texts the stored path's per-request head must
// escape as encoding/json escapes them in the whole document:
// HTML-sensitive bytes, quote and backslash, control bytes, U+2028 and
// U+2029, multi-byte runes and invalid UTF-8.
var storedSQLs = []string{
	"SELECT * FROM t WHERE x >= 1",
	`SELECT * FROM t WHERE name = "<b>&amp;</b>" AND path = 'C:\dir'`,
	"line\nbreak\ttab\rreturn\bback\fform\x00nul\x1funit\x7fdel",
	"sep\u2028line\u2029para naïve ≫ 🎉",
	"bad \xff utf8 \xc3 cut \xe2\x80",
	"",
}

// plainJSON is encoding/json's document of rep, written without the stored
// bytes: the reference the stored path must reproduce.
func plainJSON(t testing.TB, sql string, rep *Report) ([]byte, error) {
	t.Helper()
	plain := *rep
	plain.stored = nil
	var buf bytes.Buffer
	err := WriteReportJSON(&buf, sql, &plain, nil)
	return buf.Bytes(), err
}

// storedJSONBytes writes rep, a report-cache hit, through WriteReportJSON.
func storedJSONBytes(t testing.TB, sql string, rep *Report) ([]byte, error) {
	t.Helper()
	if rep.stored == nil || !rep.ReportCacheHit {
		t.Fatal("report is not a cache hit holding stored bytes")
	}
	var buf bytes.Buffer
	err := WriteReportJSON(&buf, sql, rep, nil)
	return buf.Bytes(), err
}

// checkStoredJSON writes hit under every SQL text twice, once encoding its
// stored bytes and once reusing them, and compares each document with
// encoding/json's.
func checkStoredJSON(t *testing.T, name string, hit *Report) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for _, sql := range storedSQLs {
			want, err := plainJSON(t, sql, hit)
			if err != nil {
				t.Fatalf("%s: reference encode: %v", name, err)
			}
			got, err := storedJSONBytes(t, sql, hit)
			if err != nil {
				t.Fatalf("%s: stored encode: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s pass %d sql %q: stored document differs\n got %s\nwant %s", name, pass, sql, got, want)
			}
		}
	}
	if b := hit.stored.bytes; len(b) != cap(b) {
		t.Errorf("%s: stored bytes have len %d, cap %d; want exact size", name, len(b), cap(b))
	}
}

// TestStoredReportJSONMatchesEncoder pins the stored path to encoding/json
// over the report shapes TestReportDigests covers — every engine mode of
// its corpus, exact and approximate runs, plus a run that warns — on its
// four tables: two synthetic ones, one with numeric and one with
// categorical NULLs.
func TestStoredReportJSONMatchesEncoder(t *testing.T) {
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"robust", func(c *Config) { c.Robust = true }},
		{"extended", func(c *Config) { c.Extended = true }},
		{"robust+extended", func(c *Config) { c.Robust, c.Extended = true, true }},
		{"spearman-dim3", func(c *Config) { c.Measure, c.MaxDim = depend.AbsSpearman, 3 }},
		{"cliques+extended", func(c *Config) { c.Generator, c.Extended = Cliques, true }},
	}
	runs := []struct {
		name string
		opts Options
	}{
		{"exact", Options{}},
		{"approx300", Options{ApproxRows: 300, ApproxSeed: 3}},
		{"warned", Options{ExcludeColumns: []string{"no_such_column"}}},
	}
	tables := []*frame.Frame{synth.USCrime(1), synth.BoxOffice(1), nullInjected(t, synth.USCrime(3)),
		catNullInjected(t, synth.BoxOffice(1))}
	for _, f := range tables {
		q := digestSelections(t, f)[1]
		for _, m := range modes {
			cfg := DefaultConfig()
			m.set(&cfg)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range runs {
				name := fmt.Sprintf("%s/%s/%s/%s", f.Name(), m.name, run.name, q.name)
				if _, err := e.CharacterizeOpts(f, q.sel, run.opts); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				hit, err := e.CharacterizeOpts(f, q.sel, run.opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkStoredJSON(t, name, hit)
			}
		}
	}
}

// storedFixture is a report that encodes to JSON and exercises what the
// engine rarely produces: NaN and ±Inf p-values (null), −0, 1e-7 and 1e21
// values, an invalid component (dropped), warnings and the approximate
// block.
func storedFixture() *Report {
	return &Report{
		SelectedRows: 42,
		TotalRows:    1994,
		Warnings:     []string{`column "naïve" <skipped> & more`, ""},
		Views: []View{
			{
				Columns:     []string{"a", "b<c>"},
				Score:       1e21,
				Tightness:   1e-7,
				PValue:      math.NaN(),
				Explanation: "inside ≫ outside\u2028",
				Components: []effect.Component{
					{
						Kind:    effect.DiffMeans,
						Columns: []string{"a"},
						Raw:     math.Copysign(0, -1),
						Norm:    1,
						Inside:  -1e-7,
						Outside: 123456789012345678901234.0,
						Test:    hypo.Result{P: math.Inf(1)},
						Detail:  "category «x» & \"y\"",
					},
					{Kind: effect.DiffStdDevs, Raw: math.NaN(), Norm: math.NaN(), Test: hypo.Result{P: math.NaN()}},
					{Kind: effect.DiffCorrelations, Columns: []string{"a", "b<c>"}, Raw: 0.5, Norm: 0.25, Test: hypo.Result{P: math.Inf(-1)}},
				},
			},
			{Columns: []string{"c"}, PValue: 0.2, Significant: true, Score: math.Copysign(0, -1)},
		},
		Approximate: &Approximate{SampleRows: 100, CapRows: 512, Seed: math.MaxUint64, InsideRows: 33, OutsideRows: 67, SEInflation: 4.46654},
	}
}

// storeHit files rep in a fresh front-tier cache and returns the cache and
// a hit on it.
func storeHit(t testing.TB, rep *Report) (*ReportCache, *Report) {
	t.Helper()
	rc := NewReportCache(0, 0)
	sel := frame.NewBitmap(4)
	rc.StoreFingerprint(1, sel, 2, Options{}, rep)
	hit, ok := rc.CachedFingerprint(1, sel, 2, Options{})
	if !ok {
		t.Fatal("stored report did not hit")
	}
	return rc, hit
}

// TestStoredReportJSONEdgeValues runs the stored path over reports built by
// hand: the edge-value fixture, a report with no views, and one without
// warnings or an approximate block. A hit's timings and flags come from
// the request, so the head is also checked with non-zero timings.
func TestStoredReportJSONEdgeValues(t *testing.T) {
	noExtras := storedFixture()
	noExtras.Warnings, noExtras.Approximate = nil, nil
	for name, rep := range map[string]*Report{
		"fixture":   storedFixture(),
		"no-views":  {SelectedRows: 1, TotalRows: 2},
		"no-extras": noExtras,
	} {
		_, hit := storeHit(t, rep)
		checkStoredJSON(t, name, hit)
		timed := *hit
		timed.Timings = Timings{Preparation: 1234567 * time.Microsecond, Search: time.Microsecond, Post: 1500 * time.Microsecond}
		timed.CacheHit = false
		checkStoredJSON(t, name+"/timed", &timed)
	}
}

// TestStoredReportJSONFallsBack pins the paths that keep today's encoder:
// a miss, a hit with plots, and a report whose tail does not encode, which
// must fail exactly as encoding/json fails and store nothing.
func TestStoredReportJSONFallsBack(t *testing.T) {
	rc, hit := storeHit(t, storedFixture())
	before := rc.Snapshot().Bytes
	var buf bytes.Buffer
	plot := func([]string) string { return "chart" }
	if err := WriteReportJSON(&buf, "q", hit, plot); err != nil {
		t.Fatal(err)
	}
	if hit.stored.bytes != nil || rc.Snapshot().Bytes != before {
		t.Fatal("a hit with plots stored bytes")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"plot":"chart"`)) {
		t.Fatalf("a hit with plots lost its charts: %s", buf.Bytes())
	}

	bad := storedFixture()
	bad.Views[0].Score = math.Inf(1)
	_, badHit := storeHit(t, bad)
	if _, err := storedJSONBytes(t, "q", badHit); err == nil {
		t.Fatal("an unencodable report encoded")
	}
	if _, err := plainJSON(t, "q", badHit); err == nil {
		t.Fatal("encoding/json encoded an infinite score")
	}
	if badHit.stored.bytes != nil {
		t.Fatal("an unencodable report stored bytes")
	}
}

// TestStoredReportJSONCharged pins the cache accounting: a report served
// once stores nothing, the first hit charges its stored bytes to the entry,
// later hits charge nothing more, and evicting the report frees them.
func TestStoredReportJSONCharged(t *testing.T) {
	e, f, sel := testEngine(t, DefaultConfig())
	rc := e.Reports()
	miss, err := e.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, "q", miss, nil); err != nil {
		t.Fatal(err)
	}
	charged := rc.Snapshot().Bytes
	if miss.stored == nil || miss.stored.bytes != nil {
		t.Fatal("the computing request stored bytes, or the cache attached no holder")
	}
	for i := 0; i < 3; i++ {
		hit, err := e.Characterize(f, sel)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteReportJSON(&buf, "q", hit, nil); err != nil {
			t.Fatal(err)
		}
	}
	stored := int64(len(miss.stored.bytes))
	if stored == 0 {
		t.Fatal("hits stored no bytes")
	}
	if got := rc.Snapshot().Bytes; got != charged+stored {
		t.Fatalf("cache charges %d bytes, want %d for the report plus %d stored", got, charged, stored)
	}
}

// TestStoredReportJSONEvicted pins that evicting a report frees its stored
// bytes: a one-entry cache charges only the report that replaced it.
func TestStoredReportJSONEvicted(t *testing.T) {
	rc := NewReportCache(1, 0)
	sel := frame.NewBitmap(4)
	rc.StoreFingerprint(1, sel, 2, Options{}, storedFixture())
	hit, _ := rc.CachedFingerprint(1, sel, 2, Options{})
	if _, err := storedJSONBytes(t, "q", hit); err != nil {
		t.Fatal(err)
	}
	if got, want := rc.Snapshot().Bytes, reportSize(hit)+int64(len(hit.stored.bytes)); got != want {
		t.Fatalf("cache charges %d bytes, want %d", got, want)
	}
	next := &Report{SelectedRows: 1}
	rc.StoreFingerprint(3, sel, 2, Options{}, next)
	if got, want := rc.Snapshot().Bytes, reportSize(next); got != want {
		t.Fatalf("after eviction the cache charges %d bytes, want %d", got, want)
	}
	// A fill that lands after its report was evicted charges nothing.
	late, lateHit := storeHit(t, storedFixture())
	late.Purge()
	if _, err := storedJSONBytes(t, "q", lateHit); err != nil {
		t.Fatal(err)
	}
	if got := late.Snapshot().Bytes; got != 0 {
		t.Fatalf("a fill after eviction charged %d bytes to an empty cache", got)
	}
}

// TestStoredReportJSONConcurrentFill hits one fresh entry from 8
// goroutines at once: the tail is encoded and charged once, and every
// caller writes the same document.
func TestStoredReportJSONConcurrentFill(t *testing.T) {
	rc, _ := storeHit(t, storedFixture())
	before := rc.Snapshot().Bytes
	const callers = 8
	docs := make([][]byte, callers)
	tails := make([]*byte, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			hit, ok := rc.CachedFingerprint(1, frame.NewBitmap(4), 2, Options{})
			if !ok {
				t.Error("no hit")
				return
			}
			var buf bytes.Buffer
			if err := WriteReportJSON(&buf, "SELECT <x>", hit, nil); err != nil {
				t.Error(err)
				return
			}
			docs[i] = buf.Bytes()
			tails[i] = &hit.stored.bytes[0]
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 1; i < callers; i++ {
		if !bytes.Equal(docs[i], docs[0]) {
			t.Fatalf("caller %d wrote a different document", i)
		}
		if tails[i] != tails[0] {
			t.Fatalf("caller %d saw different stored bytes", i)
		}
	}
	hit, _ := rc.CachedFingerprint(1, frame.NewBitmap(4), 2, Options{})
	if got, want := rc.Snapshot().Bytes, before+int64(len(hit.stored.bytes)); got != want {
		t.Fatalf("cache charges %d bytes, want %d: the bytes were charged more than once", got, want)
	}
}

// TestColumnsTextLessMatchesSprint pins rankDisjoint's tie-break to the
// byte order of fmt.Sprint's texts, including the cases where that differs
// from element-wise order.
func TestColumnsTextLessMatchesSprint(t *testing.T) {
	lists := [][]string{
		nil, {}, {""}, {"", ""}, {"a"}, {"a", "b"}, {"a b"}, {"a", ""}, {"a]"},
		{"a", "b", "c"}, {"ab"}, {"a", "bc"}, {"b"}, {"a!"}, {"a\x00"}, {"z", "a"},
		{"crime_rate", "population"}, {"crime_rate"}, {"crime rate"}, {"naïve"},
		{strings.Repeat("x", 200)}, {strings.Repeat("x", 200), "y"},
	}
	texts := make([]string, len(lists))
	for i, l := range lists {
		texts[i] = fmt.Sprint(l)
	}
	for i, a := range lists {
		for j, b := range lists {
			if got, want := columnsTextLess(a, b), texts[i] < texts[j]; got != want {
				t.Errorf("columnsTextLess(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
	sorted := append([][]string(nil), lists...)
	sort.SliceStable(sorted, func(i, j int) bool { return columnsTextLess(sorted[i], sorted[j]) })
	for i := 1; i < len(sorted); i++ {
		if fmt.Sprint(sorted[i-1]) > fmt.Sprint(sorted[i]) {
			t.Fatalf("sorted out of text order: %q before %q", sorted[i-1], sorted[i])
		}
	}
}

// FuzzStoredReportJSON fuzzes the report a hit writes — its SQL text, row
// counts, timings, floats, explanation, detail, warning and column names —
// and compares the stored path's bytes with encoding/json's document: both
// fail, or both write the same bytes. The float fields include values
// encoding/json rejects (non-finite scores) or writes as null (p-values).
func FuzzStoredReportJSON(f *testing.F) {
	for _, sql := range storedSQLs {
		f.Add(sql, "a", "b<c>", "inside ≫ outside", "category «x»", "warn & more", 1.25, 0.5, 0.01, -0.0, 1e-7, 1e21, 42, int64(1500))
	}
	f.Add("q", "", "", "", "", "", math.NaN(), 0.0, math.Inf(1), 0.0, 0.0, 0.0, 0, int64(0))
	f.Add("\u2028", "\xff", "\"", "\\", "\x00", "\u2029", 1.0, 1.0, math.NaN(), 1e-300, -1e300, 5e-324, -1, int64(-7))
	f.Fuzz(func(t *testing.T, sql, colA, colB, explanation, detail, warning string,
		score, norm, p, raw, inside, outside float64, rows int, micros int64) {
		rep := &Report{
			SelectedRows: rows,
			TotalRows:    2 * rows,
			Warnings:     []string{warning},
			Views: []View{{
				Columns:     []string{colA, colB},
				Score:       score,
				Tightness:   norm,
				PValue:      p,
				Significant: p < 0.05,
				Explanation: explanation,
				Components: []effect.Component{{
					Kind:    effect.DiffFrequencies,
					Columns: []string{colA},
					Raw:     raw,
					Norm:    norm,
					Inside:  inside,
					Outside: outside,
					Test:    hypo.Result{P: p},
					Detail:  detail,
				}},
			}},
		}
		_, hit := storeHit(t, rep)
		hit.Timings = Timings{Preparation: time.Duration(micros) * time.Microsecond, Post: time.Duration(rows)}
		for pass := 0; pass < 2; pass++ {
			want, wantErr := plainJSON(t, sql, hit)
			got, gotErr := storedJSONBytes(t, sql, hit)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("encoding/json error %v, stored path error %v", wantErr, gotErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stored document differs\n got %q\nwant %q", got, want)
			}
			if wantErr == nil && !json.Valid(got) {
				t.Fatalf("stored document is not JSON: %q", got)
			}
		}
	})
}
