package db

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/synth"
)

var updateRows = flag.Bool("update", false, "rewrite testdata/query_rows.golden")

// withNulls copies f under its own name with NULLs punched into every
// column: row r of column i is NULL where (7r+i) mod 11 = 0. Categorical
// columns keep their dictionaries, so a projection that skips a value's
// only rows has to compact it away.
func withNulls(t testing.TB, f *frame.Frame) *frame.Frame {
	t.Helper()
	cols := make([]*frame.Column, f.NumCols())
	for i, c := range f.Columns() {
		if c.Kind() == frame.Numeric {
			vals := append([]float64(nil), c.Floats()...)
			for r := range vals {
				if (7*r+i)%11 == 0 {
					vals[r] = math.NaN()
				}
			}
			cols[i] = frame.NewNumericColumn(c.Name(), vals)
			continue
		}
		codes := append([]int32(nil), c.Codes()...)
		for r := range codes {
			if (7*r+i)%11 == 0 {
				codes[r] = -1
			}
		}
		nc, err := frame.NewCategoricalColumnFromCodes(c.Name(), codes, c.Dict())
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = nc
	}
	g, err := frame.New(f.Name(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rowsDigest hashes a result frame: its name, shape, each column's name,
// kind and dictionary in order, and every cell, with NULLs marked apart
// from values.
func rowsDigest(f *frame.Frame) [sha256.Size]byte {
	h := sha256.New()
	str := func(s string) {
		writeUint(h, uint64(len(s)))
		h.Write([]byte(s))
	}
	str(f.Name())
	writeUint(h, uint64(f.NumRows()))
	writeUint(h, uint64(f.NumCols()))
	for _, c := range f.Columns() {
		str(c.Name())
		writeUint(h, uint64(c.Kind()))
		if c.Kind() == frame.Categorical {
			writeUint(h, uint64(len(c.Dict())))
			for _, v := range c.Dict() {
				str(v)
			}
		}
		for r := 0; r < c.Len(); r++ {
			switch {
			case c.IsNull(r):
				h.Write([]byte{0})
			case c.Kind() == frame.Numeric:
				h.Write([]byte{1})
				writeUint(h, math.Float64bits(c.Float(r)))
			default:
				h.Write([]byte{1})
				writeUint(h, uint64(c.Code(r)))
			}
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func writeUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// rowStatements is the digest corpus: projections, multi-key ORDER BY over
// NULL keys and ties, LIMITs at, inside and past the ends, an empty
// selection, and GROUP BY with and without ORDER BY/LIMIT over every
// aggregate.
var rowStatements = []string{
	"SELECT * FROM boxoffice",
	"SELECT genre, gross_musd, year FROM boxoffice WHERE gross_musd >= 100",
	"SELECT genre, studio_class, year, gross_musd FROM boxoffice ORDER BY genre, year DESC, gross_musd",
	"SELECT * FROM boxoffice ORDER BY studio_class DESC, critic_score LIMIT 25",
	"SELECT * FROM boxoffice LIMIT 0",
	"SELECT year, genre FROM boxoffice WHERE year >= 2010 LIMIT 7",
	"SELECT * FROM boxoffice ORDER BY year LIMIT 100000",
	"SELECT * FROM boxoffice WHERE gross_musd > 1e9",
	"SELECT genre FROM boxoffice WHERE gross_musd > 1e9 ORDER BY genre LIMIT 3",
	"SELECT genre, COUNT(*), COUNT(gross_musd), SUM(gross_musd), AVG(critic_score), MIN(year), MAX(year), MIN(studio_class), MAX(studio_class) FROM boxoffice GROUP BY genre",
	"SELECT genre, studio_class, COUNT(*) AS n, AVG(gross_musd) AS mean_gross FROM boxoffice WHERE year >= 2005 GROUP BY genre, studio_class ORDER BY n DESC, genre LIMIT 5",
	"SELECT year, COUNT(*) FROM boxoffice GROUP BY year ORDER BY year DESC LIMIT 3",
	"SELECT studio_class FROM boxoffice GROUP BY studio_class ORDER BY studio_class",
	"SELECT COUNT(*) FROM boxoffice",
	"SELECT COUNT(*) AS n, MIN(genre), MAX(genre), SUM(budget_musd) FROM boxoffice WHERE gross_musd > 1e9",
	"SELECT genre, COUNT(*) FROM boxoffice WHERE gross_musd > 1e9 GROUP BY genre",
	"SELECT * FROM uscrime WHERE crime_violent_rate >= 1300",
	"SELECT region, size_class, crime_violent_rate FROM uscrime ORDER BY region, size_class DESC, crime_violent_rate DESC LIMIT 50",
	"SELECT arson_count, region FROM uscrime ORDER BY arson_count LIMIT 40",
	"SELECT region, COUNT(*), AVG(crime_violent_rate), MIN(size_class), MAX(size_class), SUM(arson_count) FROM uscrime GROUP BY region ORDER BY region",
	"SELECT size_class, region, MAX(gang_incidents) AS worst FROM uscrime WHERE pop_density > 100 GROUP BY size_class, region ORDER BY worst DESC, region LIMIT 4",
}

// TestQueryRowDigests pins the gathered rows of every statement in the
// corpus, over copies of two synthetic tables with NULLs in numeric and
// categorical columns, to SHA-256 digests. Run with -update to rewrite the
// golden after a deliberate change of result rows.
func TestQueryRowDigests(t *testing.T) {
	cat := NewCatalog()
	for _, f := range []*frame.Frame{synth.BoxOffice(1), synth.USCrime(1)} {
		if err := cat.Register(withNulls(t, f)); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	for _, sql := range rowStatements {
		res, err := cat.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rows := mustRows(t, res)
		fmt.Fprintf(&b, "%x %d×%d %s\n", rowsDigest(rows), rows.NumRows(), rows.NumCols(), sql)
	}
	got := b.String()
	path := filepath.Join("testdata", "query_rows.golden")
	if *updateRows {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("query row digests differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
