package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/synth"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/report_digests.golden")

// nullInjected copies f with NULLs punched into every 5th numeric column:
// row r of column i is NULL where (7r+i) mod 11 = 0. The synthetic tables
// hold no NULLs of their own, so this is the table that exercises every
// walk's validity mask.
func nullInjected(t *testing.T, f *frame.Frame) *frame.Frame {
	t.Helper()
	cols := make([]*frame.Column, f.NumCols())
	nulls := 0
	for i, c := range f.Columns() {
		if c.Kind() != frame.Numeric || i%5 != 0 {
			cols[i] = c
			continue
		}
		vals := append([]float64(nil), c.Floats()...)
		for r := range vals {
			if (7*r+i)%11 == 0 {
				vals[r] = math.NaN()
				nulls++
			}
		}
		cols[i] = frame.NewNumericColumn(c.Name(), vals)
	}
	if nulls == 0 {
		t.Fatal("null injection produced no NULLs")
	}
	g, err := frame.New(f.Name()+"_nulls", cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// catNullInjected copies f with NULL codes punched into every categorical
// column: row r of column i is NULL where (5r+i) mod 7 = 0. It is the table
// that exercises the categorical validity mask of the frequency, entropy,
// dependency η and separation walks.
func catNullInjected(t *testing.T, f *frame.Frame) *frame.Frame {
	t.Helper()
	cols := make([]*frame.Column, f.NumCols())
	nulls := 0
	for i, c := range f.Columns() {
		if c.Kind() != frame.Categorical {
			cols[i] = c
			continue
		}
		codes := append([]int32(nil), c.Codes()...)
		for r := range codes {
			if (5*r+i)%7 == 0 {
				codes[r] = -1
				nulls++
			}
		}
		nc, err := frame.NewCategoricalColumnFromCodes(c.Name(), codes, c.Dict())
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = nc
	}
	if nulls == 0 {
		t.Fatal("null injection produced no NULLs")
	}
	g, err := frame.New(f.Name()+"_catnulls", cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// namedSelection is one query of the digest corpus.
type namedSelection struct {
	name string
	sel  *frame.Bitmap
}

// digestSelections returns threshold selections on a spread of f's numeric
// columns: column k·n/3 at or above its 0.3 and 0.7 quantiles.
func digestSelections(t *testing.T, f *frame.Frame) []namedSelection {
	t.Helper()
	var numeric []*frame.Column
	for _, c := range f.Columns() {
		if c.Kind() == frame.Numeric {
			numeric = append(numeric, c)
		}
	}
	var sels []namedSelection
	for k := 0; k < 3; k++ {
		c := numeric[k*len(numeric)/3]
		for _, q := range []float64{0.3, 0.7} {
			threshold, err := synth.QuantileOf(f, c.Name(), q)
			if err != nil {
				t.Fatal(err)
			}
			sel := frame.NewBitmap(f.NumRows())
			for r := 0; r < f.NumRows(); r++ {
				if !c.IsNull(r) && c.Float(r) >= threshold {
					sel.Set(r)
				}
			}
			sels = append(sels, namedSelection{fmt.Sprintf("%s>=q%.1f", c.Name(), q), sel})
		}
	}
	return sels
}

// TestReportDigests pins the report bytes of every engine mode — default,
// robust, extended, robust+extended, Spearman dependencies with
// three-column views, and clique generation — on exact and approximate
// runs, over two synthetic tables, a copy of a third with numeric NULLs and
// a copy of the second with categorical NULLs, to
// SHA-256 digests of the wire encoding. Every other determinism rail
// compares the engine with itself; this one compares it with the bytes it
// produced when the golden was written. Run with -update to rewrite the
// golden after a deliberate change of report bytes.
func TestReportDigests(t *testing.T) {
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
		{"exact", Options{SkipReportCache: true}},
		{"approx300", Options{SkipReportCache: true, ApproxRows: 300, ApproxSeed: 3}},
	}
	tables := []*frame.Frame{synth.USCrime(1), synth.BoxOffice(1), nullInjected(t, synth.USCrime(3)),
		catNullInjected(t, synth.BoxOffice(1))}
	var lines []string
	for _, f := range tables {
		sels := digestSelections(t, f)
		for _, m := range modes {
			cfg := DefaultConfig()
			m.set(&cfg)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range runs {
				for _, q := range sels {
					rep, err := e.CharacterizeOpts(f, q.sel, run.opts)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", f.Name(), m.name, run.name, q.name, err)
					}
					rep.Timings = Timings{}
					lines = append(lines, fmt.Sprintf("%s %s %s %s %x",
						f.Name(), m.name, run.name, q.name, sha256.Sum256(EncodeReport(rep))))
				}
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "report_digests.golden")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	wantSet := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		wantSet[l] = true
	}
	moved := 0
	for _, l := range lines {
		if !wantSet[l] {
			moved++
			if moved <= 10 {
				t.Errorf("digest moved: %s", l)
			}
		}
	}
	t.Errorf("%d of %d report digests differ from %s", moved, len(lines), path)
}
